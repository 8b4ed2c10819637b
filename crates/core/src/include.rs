//! Include-Jetty (IJ, paper §3.2 / Figure 3b-c): N counting-Bloom-filter
//! sub-arrays encoding a *superset* of the coherence units currently cached
//! in the local L2.
//!
//! Each sub-array has `2^E` entries, each holding a presence bit (`p`) and a
//! counter (`cnt`). Sub-array `i` is indexed by an `E`-bit slice of the unit
//! address starting at bit `i * skip`; with `skip < E` the slices partially
//! overlap, which the paper found more accurate than disjoint slices. A
//! snoop reads only the N p-bits: if *any* is clear, no cached unit can
//! match the address, so the snoop is filtered. Counters track exactly how
//! many cached units map to each entry so p-bits can be cleared again on
//! deallocation — this is what keeps the superset coherent and the filter
//! safe.
//!
//! For energy, the p-bits and counters live in separate arrays (Figure 3c):
//! snoops touch only the small p-bit arrays (organised rows x columns like a
//! register file); allocate/deallocate traffic performs read-modify-write on
//! the cnt arrays and occasionally writes a p-bit.

use std::fmt;

use crate::addr::{AddrSpace, UnitAddr};
use crate::filter::{ArraySpec, FilterActivity, MissScope, SnoopFilter, Verdict};

/// Configuration for an [`IncludeJetty`], the paper's `IJ-ExNxS` naming:
/// `2^E`-entry sub-arrays, `N` of them, index slices `S` bits apart.
///
/// # Examples
///
/// ```
/// use jetty_core::IncludeConfig;
///
/// let cfg = IncludeConfig::new(10, 4, 7);
/// assert_eq!(cfg.label(), "IJ-10x4x7");
/// assert_eq!(cfg.entries_per_array(), 1024);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct IncludeConfig {
    /// Index width `E`: each sub-array has `2^E` entries.
    pub index_bits: u32,
    /// Number of sub-arrays `N`.
    pub sub_arrays: u32,
    /// Distance `S` in bits between consecutive sub-array index slices.
    /// `S < E` yields partially overlapping indices (the paper's choice).
    pub skip: u32,
    /// Counter width in bits, used only for storage estimates. The paper
    /// pessimistically sizes counters to cover every L2 block mapping to a
    /// single entry (14 bits for their 1 MB L2).
    pub cnt_bits: u32,
}

impl IncludeConfig {
    /// Default counter width used by the paper's storage table.
    pub const DEFAULT_CNT_BITS: u32 = 14;

    /// Creates a configuration with the paper's default 14-bit counters.
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is 0 or > 30, if `sub_arrays` is 0, or if
    /// `skip` is 0.
    pub fn new(index_bits: u32, sub_arrays: u32, skip: u32) -> Self {
        Self::with_cnt_bits(index_bits, sub_arrays, skip, Self::DEFAULT_CNT_BITS)
    }

    /// Creates a configuration with an explicit counter width.
    ///
    /// # Panics
    ///
    /// Same conditions as [`IncludeConfig::new`], plus `cnt_bits == 0`.
    pub fn with_cnt_bits(index_bits: u32, sub_arrays: u32, skip: u32, cnt_bits: u32) -> Self {
        assert!((1..=30).contains(&index_bits), "IJ index width must be 1..=30, got {index_bits}");
        assert!(sub_arrays > 0, "IJ needs at least one sub-array");
        assert!(skip > 0, "IJ index skip must be nonzero");
        assert!(cnt_bits > 0, "IJ counter width must be nonzero");
        Self { index_bits, sub_arrays, skip, cnt_bits }
    }

    /// Entries per sub-array (`2^E`).
    pub fn entries_per_array(&self) -> usize {
        1usize << self.index_bits
    }

    /// Paper-style label, e.g. `IJ-10x4x7`.
    pub fn label(&self) -> String {
        format!("IJ-{}x{}x{}", self.index_bits, self.sub_arrays, self.skip)
    }

    /// Organisation of one p-bit array as (rows, bits per row), mirroring
    /// Figure 3c / Table 4: columns are `max(16, 2^ceil(E/2))` so the array
    /// looks like a small register file.
    pub fn pbit_org(&self) -> (usize, usize) {
        let cols = (1usize << self.index_bits.div_ceil(2)).max(16).min(self.entries_per_array());
        let rows = self.entries_per_array() / cols;
        (rows.max(1), cols)
    }

    /// Total p-bit storage across all sub-arrays, in bits.
    pub fn pbit_storage_bits(&self) -> usize {
        self.sub_arrays as usize * self.entries_per_array()
    }

    /// Total counter storage across all sub-arrays, in bits.
    pub fn cnt_storage_bits(&self) -> usize {
        self.sub_arrays as usize * self.entries_per_array() * self.cnt_bits as usize
    }

    /// Total storage (p-bits + counters) in bytes, the Table 4 figure.
    pub fn storage_bytes(&self) -> usize {
        (self.pbit_storage_bits() + self.cnt_storage_bits()).div_ceil(8)
    }
}

/// The Include-Jetty filter. See the module docs.
///
/// # Examples
///
/// ```
/// use jetty_core::{AddrSpace, IncludeConfig, IncludeJetty, SnoopFilter, UnitAddr, Verdict};
///
/// let mut ij = IncludeJetty::new(IncludeConfig::new(8, 4, 7), AddrSpace::default());
/// let unit = UnitAddr::new(0xBEEF);
///
/// // Empty cache: every snoop is filtered.
/// assert_eq!(ij.probe(unit), Verdict::NotCached);
/// // Once the unit is cached the filter must let snoops through.
/// ij.on_allocate(unit);
/// assert_eq!(ij.probe(unit), Verdict::MaybeCached);
/// // And after eviction it filters again.
/// ij.on_deallocate(unit);
/// assert_eq!(ij.probe(unit), Verdict::NotCached);
/// ```
#[derive(Clone)]
pub struct IncludeJetty {
    config: IncludeConfig,
    space: AddrSpace,
    /// Exact per-entry populations; `p-bit == (count > 0)`. One contiguous
    /// array for all sub-arrays: sub-array `i` occupies
    /// `counts[i << index_bits .. (i + 1) << index_bits]`. `u16` is
    /// sufficient: a counter is bounded by the L2 population (32768 units
    /// for the paper's 1 MB L2), and halving the counter footprint keeps
    /// more of the allocate/deallocate working set cache-resident.
    counts: Vec<u16>,
    /// Packed presence bits mirroring `counts` (bit set ⇔ count > 0),
    /// 64 entries per word, same sub-array-major order. Snoops probe only
    /// this bitmap — it is the software twin of the paper's separate p-bit
    /// arrays (Figure 3c): the whole bank's p-bits stay cache-resident
    /// while the big counter arrays are touched only by (much rarer)
    /// allocate/deallocate traffic.
    pbits: Vec<u64>,
    /// Per-sub-array p-bit writes (0 -> 1 on allocate, 1 -> 0 on
    /// deallocate) so far: a dense counter per sub-array,
    /// folded into the p-bit arrays' write counts in `activity()`. Its
    /// allocation is part of what a `System` allocates, which construction
    /// cost is sensitive to (ARCHITECTURE §2a.1, "Construction cost").
    pbit_writes: Vec<u64>,
    /// `on_allocate` calls so far. Every allocate performs
    /// exactly one counter read-modify-write per sub-array, so that
    /// uniform activity is derived in `activity()` instead of bumped per
    /// event (same deferral as the per-probe p-bit reads).
    allocates: u64,
    /// `on_deallocate` calls so far (same uniform-charge
    /// deferral as `allocates`).
    deallocates: u64,
    activity: FilterActivity,
}

impl fmt::Debug for IncludeJetty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IncludeJetty")
            .field("config", &self.config)
            .field("probes", &self.activity.probes)
            .field("filtered", &self.activity.filtered)
            .finish()
    }
}

impl IncludeJetty {
    /// Creates an Include-Jetty for the given address space.
    ///
    /// The filter starts empty (all p-bits clear), matching an empty cache.
    pub fn new(config: IncludeConfig, space: AddrSpace) -> Self {
        let entries = config.sub_arrays as usize * config.entries_per_array();
        let counts = vec![0u16; entries];
        let pbits = vec![0u64; entries.div_ceil(64)];
        let arrays = Self::array_count(&config);
        Self {
            config,
            space,
            counts,
            pbits,
            pbit_writes: vec![0; config.sub_arrays as usize],
            allocates: 0,
            deallocates: 0,
            activity: FilterActivity::with_arrays(arrays),
        }
    }

    fn array_count(config: &IncludeConfig) -> usize {
        // One p-bit array and one cnt array per sub-array, interleaved:
        // [pbit0, cnt0, pbit1, cnt1, ...].
        2 * config.sub_arrays as usize
    }

    /// The configuration this filter was built with.
    pub fn config(&self) -> IncludeConfig {
        self.config
    }

    /// The address space this filter indexes.
    pub fn space(&self) -> AddrSpace {
        self.space
    }

    /// Index into sub-array `i` for `addr`: bits `[i*skip, i*skip + E)`.
    pub fn index(&self, i: u32, addr: UnitAddr) -> usize {
        addr.bits(i * self.config.skip, self.config.index_bits) as usize
    }

    /// Current population count of entry `idx` in sub-array `i` (test/debug
    /// aid; real hardware stores `count - 1` plus the p-bit).
    pub fn count(&self, i: u32, idx: usize) -> u32 {
        u32::from(self.counts[self.flat_slot(i, idx)])
    }

    /// Flat index of entry `idx` in sub-array `i`.
    fn flat_slot(&self, i: u32, idx: usize) -> usize {
        ((i as usize) << self.config.index_bits) | idx
    }

    /// Reads the packed presence bit for a flat slot.
    fn pbit(&self, slot: usize) -> bool {
        self.pbits[slot >> 6] & (1u64 << (slot & 63)) != 0
    }

    /// Writes the packed presence bit for a flat slot.
    fn set_pbit(&mut self, slot: usize, set: bool) {
        if set {
            self.pbits[slot >> 6] |= 1u64 << (slot & 63);
        } else {
            self.pbits[slot >> 6] &= !(1u64 << (slot & 63));
        }
    }

    fn pbit_slot(i: u32) -> usize {
        2 * i as usize
    }

    fn cnt_slot(i: u32) -> usize {
        2 * i as usize + 1
    }

    /// Reads the p-bits for `addr` without counting a snoop probe (used by
    /// the hybrid's eager ablation to establish whole-block absence).
    /// Charges the p-bit array reads it performs.
    pub fn guarantees_absent(&mut self, addr: UnitAddr) -> bool {
        for i in 0..self.config.sub_arrays {
            self.activity.arrays[Self::pbit_slot(i)].reads += 1;
            let idx = self.index(i, addr);
            if !self.pbit(self.flat_slot(i, idx)) {
                return true;
            }
        }
        false
    }

    /// One snoop: the p-bit test of [`probe`](SnoopFilter::probe), counted
    /// the same way, but branch-free — every selected p-bit is read and
    /// the bits ANDed, as the hardware reads the N rows in parallel — so
    /// no mispredicted early exit sits on the replay's dependency chain.
    /// Returns whether the IJ filtered the snoop. This is the per-event
    /// step of [`FilterBank`](crate::FilterBank) replay. The release build
    /// keeps it out of line, and forcing it inline bought nothing: on a
    /// replay harness over recorded node-0 logs (`table2 --scale 0.1`,
    /// 2-vCPU x86_64 VM), 20 interleaved pairs of `#[inline]` against
    /// `#[inline(always)]` read 188.6 vs 187.3 ns/event median on a 4-way
    /// IJ-and-hybrid bank (10/20 wins for inlining), 119.9 vs 120.1 on an
    /// 8-way one (11/20), and 249.8 vs 255.6 and 192.8 vs 196.6 on the full
    /// 4- and 8-way paper banks, all inside run-to-run spreads of 30 ns
    /// and more.
    #[inline]
    pub(crate) fn snoop_step(&mut self, addr: UnitAddr) -> bool {
        let absent = match self.config.sub_arrays {
            4 => self.absent::<4>(addr),
            5 => self.absent::<5>(addr),
            _ => self.absent::<0>(addr),
        };
        self.activity.probes += 1;
        self.activity.filtered += u64::from(absent);
        absent
    }

    /// `true` when some p-bit `addr` selects is clear, over `N`
    /// sub-arrays (`N = 0`: the configured count), so the loop unrolls.
    #[inline(always)]
    fn absent<const N: u32>(&self, addr: UnitAddr) -> bool {
        let n = if N == 0 { self.config.sub_arrays } else { N };
        let mut present = 1;
        for i in 0..n {
            let slot = self.flat_slot(i, self.index(i, addr));
            present &= self.pbits[slot >> 6] >> (slot & 63);
        }
        present & 1 == 0
    }
}

impl SnoopFilter for IncludeJetty {
    fn probe(&mut self, addr: UnitAddr) -> Verdict {
        self.activity.probes += 1;
        // A snoop reads one row of each p-bit array, in parallel; that
        // uniform read (one per array per probe) is derived from `probes`
        // in `activity()` rather than bumped per sub-array here — which
        // also lets the software loop exit on the first clear p-bit (the
        // hardware reads all N rows in parallel either way, and the
        // energy charge stays N reads regardless).
        for i in 0..self.config.sub_arrays {
            let idx = self.index(i, addr);
            if !self.pbit(self.flat_slot(i, idx)) {
                self.activity.filtered += 1;
                return Verdict::NotCached;
            }
        }
        Verdict::MaybeCached
    }

    fn record_snoop_miss(&mut self, _addr: UnitAddr, _scope: MissScope) {
        // IJ state is driven purely by cache contents; snoop misses carry no
        // information for it.
    }

    fn on_allocate(&mut self, addr: UnitAddr) {
        // The counter read-modify-write per sub-array is uniform (exactly
        // one per allocate) and is charged via `allocates` in `activity()`;
        // only the data-dependent p-bit 0 -> 1 writes are counted here.
        self.allocates += 1;
        for i in 0..self.config.sub_arrays {
            let idx = self.index(i, addr);
            let slot = self.flat_slot(i, idx);
            let count = &mut self.counts[slot];
            assert!(
                *count < u16::MAX,
                "IJ counter saturated in sub-array {i} entry {idx}: cache population \
                 exceeds the u16 counter range for this configuration"
            );
            let was_zero = *count == 0;
            *count += 1;
            if was_zero {
                // The p-bit transitions 0 -> 1.
                self.pbit_writes[i as usize] += 1;
                self.set_pbit(slot, true);
            }
        }
    }

    fn on_deallocate(&mut self, addr: UnitAddr) {
        // Uniform counter RMWs deferred via `deallocates`, as in
        // `on_allocate`.
        self.deallocates += 1;
        for i in 0..self.config.sub_arrays {
            let idx = self.index(i, addr);
            let slot = self.flat_slot(i, idx);
            let count = &mut self.counts[slot];
            assert!(
                *count > 0,
                "IJ counter underflow in sub-array {i} entry {idx}: \
                 deallocate without matching allocate (protocol bug)"
            );
            *count -= 1;
            let now_zero = *count == 0;
            if now_zero {
                self.pbit_writes[i as usize] += 1;
                self.set_pbit(slot, false);
            }
        }
    }

    fn arrays(&self) -> Vec<ArraySpec> {
        let (rows, cols) = self.config.pbit_org();
        let mut specs = Vec::with_capacity(Self::array_count(&self.config));
        for i in 0..self.config.sub_arrays {
            specs.push(ArraySpec::sram(format!("ij.pbits[{i}]"), rows, cols));
            // Counter arrays use the same row organisation, cnt_bits wide
            // per entry (Figure 3c shows cnt arrays mirroring the p-bit
            // organisation).
            specs.push(ArraySpec::sram(
                format!("ij.cnt[{i}]"),
                self.config.entries_per_array(),
                self.config.cnt_bits as usize,
            ));
        }
        specs
    }

    fn activity(&self) -> FilterActivity {
        // Materialise the charges deferred on the hot paths: one p-bit
        // read per array per probe, one counter read-modify-write per
        // array per allocate/deallocate, and the counted p-bit writes.
        let mut activity = self.activity.clone();
        let cnt_rmw = self.allocates + self.deallocates;
        for i in 0..self.config.sub_arrays {
            activity.arrays[Self::pbit_slot(i)].reads += activity.probes;
            activity.arrays[Self::pbit_slot(i)].writes += self.pbit_writes[i as usize];
            activity.arrays[Self::cnt_slot(i)].reads += cnt_rmw;
            activity.arrays[Self::cnt_slot(i)].writes += cnt_rmw;
        }
        activity
    }

    fn name(&self) -> String {
        self.config.label()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ij(e: u32, n: u32, s: u32) -> IncludeJetty {
        IncludeJetty::new(IncludeConfig::new(e, n, s), AddrSpace::default())
    }

    #[test]
    fn empty_filter_filters_everything() {
        let mut f = ij(8, 4, 7);
        for a in [0u64, 1, 0xffff, 0x7_ffff_ffff] {
            assert_eq!(f.probe(UnitAddr::new(a)), Verdict::NotCached);
        }
        assert_eq!(f.activity().filtered, 4);
    }

    #[test]
    fn allocated_unit_is_never_filtered() {
        let mut f = ij(8, 4, 7);
        let u = UnitAddr::new(0x1234_5678);
        f.on_allocate(u);
        assert_eq!(f.probe(u), Verdict::MaybeCached);
    }

    #[test]
    fn deallocate_restores_filtering() {
        let mut f = ij(8, 4, 7);
        let u = UnitAddr::new(42);
        f.on_allocate(u);
        f.on_deallocate(u);
        assert_eq!(f.probe(u), Verdict::NotCached);
    }

    #[test]
    fn duplicate_allocations_need_matching_deallocations() {
        let mut f = ij(6, 5, 6);
        let a = UnitAddr::new(0x10);
        let b = UnitAddr::new(0x10 + (1 << 31)); // differs only in high bits
        f.on_allocate(a);
        f.on_allocate(b);
        f.on_deallocate(a);
        // `b` still pins some shared entries; b must not be filtered.
        assert_eq!(f.probe(b), Verdict::MaybeCached);
        f.on_deallocate(b);
        assert_eq!(f.probe(b), Verdict::NotCached);
    }

    #[test]
    fn aliasing_gives_false_maybe_but_never_false_not_cached() {
        // Two addresses with identical low 32 bits alias in every sub-array
        // of IJ-8x4x7 (highest slice tops out at bit 29).
        let mut f = ij(8, 4, 7);
        let cached = UnitAddr::new(0xABCD_1234);
        let alias = UnitAddr::new(0xABCD_1234 | (1 << 34));
        f.on_allocate(cached);
        // The alias is a false positive: MaybeCached (safe, just not useful).
        assert_eq!(f.probe(alias), Verdict::MaybeCached);
    }

    #[test]
    fn counts_track_population_exactly() {
        let mut f = ij(4, 2, 3);
        let u = UnitAddr::new(0b101_0110);
        f.on_allocate(u);
        f.on_allocate(u);
        assert_eq!(f.count(0, f.index(0, u)), 2);
        f.on_deallocate(u);
        assert_eq!(f.count(0, f.index(0, u)), 1);
        assert_eq!(f.probe(u), Verdict::MaybeCached);
    }

    #[test]
    #[should_panic(expected = "counter underflow")]
    fn deallocate_on_empty_panics() {
        let mut f = ij(4, 2, 3);
        f.on_deallocate(UnitAddr::new(1));
    }

    #[test]
    fn record_snoop_miss_is_inert() {
        let mut f = ij(8, 4, 7);
        let u = UnitAddr::new(77);
        f.on_allocate(u);
        f.record_snoop_miss(u, MissScope::Block);
        assert_eq!(f.probe(u), Verdict::MaybeCached);
    }

    #[test]
    fn index_slices_follow_paper_layout() {
        let f = ij(10, 4, 7);
        // Address with a distinctive bit pattern: bit k set iff k % 7 == 0.
        let mut raw = 0u64;
        for k in (0..35).step_by(7) {
            raw |= 1 << k;
        }
        let u = UnitAddr::new(raw);
        for i in 0..4u32 {
            let expected = UnitAddr::new(raw).bits(i * 7, 10) as usize;
            assert_eq!(f.index(i, u), expected);
        }
    }

    #[test]
    fn overlapping_indices_share_bits() {
        // skip(7) < E(10): consecutive slices overlap by 3 bits.
        let f = ij(10, 2, 7);
        let u = UnitAddr::new(0b11_1111_1111 << 7); // bits 7..17 set
        assert_eq!(f.index(1, u), 0b11_1111_1111);
        assert_eq!(f.index(0, u), 0b111_0000000);
    }

    #[test]
    fn storage_matches_table4_for_large_configs() {
        // Table 4: IJ-10x4x7 p-bits 4x1024 organised 4 x (32x32); total
        // 7168 bytes with 14-bit counters.
        let c = IncludeConfig::new(10, 4, 7);
        assert_eq!(c.pbit_storage_bits(), 4 * 1024);
        assert_eq!(c.pbit_org(), (32, 32));
        assert_eq!(c.storage_bytes(), 7168 + 4 * 1024 / 8); // cnt + p-bits

        let c9 = IncludeConfig::new(9, 4, 7);
        assert_eq!(c9.pbit_org(), (16, 32));
        let c8 = IncludeConfig::new(8, 4, 7);
        assert_eq!(c8.pbit_org(), (16, 16));
        let c7 = IncludeConfig::new(7, 5, 6);
        assert_eq!(c7.pbit_org(), (8, 16));
        let c6 = IncludeConfig::new(6, 5, 6);
        assert_eq!(c6.pbit_org(), (4, 16));
    }

    #[test]
    fn probe_touches_only_pbit_arrays() {
        let mut f = ij(8, 4, 7);
        f.probe(UnitAddr::new(1));
        let act = f.activity();
        for i in 0..4u32 {
            assert_eq!(act.arrays[2 * i as usize].reads, 1, "p-bit array {i}");
            assert_eq!(act.arrays[2 * i as usize + 1].total(), 0, "cnt array {i}");
        }
    }

    #[test]
    fn allocate_touches_cnt_arrays_and_sets_pbits() {
        let mut f = ij(8, 4, 7);
        f.on_allocate(UnitAddr::new(3));
        let first = f.activity();
        for i in 0..4u32 {
            assert_eq!(first.arrays[2 * i as usize + 1].reads, 1);
            assert_eq!(first.arrays[2 * i as usize + 1].writes, 1);
            assert_eq!(first.arrays[2 * i as usize].writes, 1); // 0 -> 1
        }
        // Second allocate to the same entries: no p-bit writes.
        f.on_allocate(UnitAddr::new(3));
        let second = f.activity();
        for i in 0..4u32 {
            let pbits = 2 * i as usize;
            assert_eq!(second.arrays[pbits].writes, first.arrays[pbits].writes);
        }
    }

    #[test]
    fn name_label() {
        assert_eq!(ij(9, 4, 7).name(), "IJ-9x4x7");
        assert_eq!(ij(6, 5, 6).name(), "IJ-6x5x6");
    }

    #[test]
    fn smaller_config_aliases_more() {
        // With many random allocations, a small IJ should filter fewer
        // snoops to absent addresses than a large one (superset is coarser).
        let mut big = ij(10, 4, 7);
        let mut small = ij(6, 5, 6);
        let mut x = 0x9E3779B97F4A7C15u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x & 0x7_FFFF_FFFF
        };
        for _ in 0..256 {
            let u = UnitAddr::new(next());
            big.on_allocate(u);
            small.on_allocate(u);
        }
        let mut big_filtered = 0;
        let mut small_filtered = 0;
        for _ in 0..2000 {
            let u = UnitAddr::new(next());
            if big.probe(u).is_filtered() {
                big_filtered += 1;
            }
            if small.probe(u).is_filtered() {
                small_filtered += 1;
            }
        }
        assert!(
            big_filtered > small_filtered,
            "expected the larger IJ to filter more ({big_filtered} vs {small_filtered})"
        );
    }
}
