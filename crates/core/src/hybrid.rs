//! Hybrid-Jetty (HJ, paper §3.3): an Include-Jetty and an Exclude-Jetty
//! probed in parallel.
//!
//! The IJ holds aggregate information about what *is* cached; the EJ tracks
//! a small set of hot units that are *not* cached but that the IJ's coarse
//! superset cannot rule out. A snoop is filtered when **either** component
//! says "not cached" — the union of two safe guarantees is safe.
//!
//! To keep the EJ pointed at exactly the snoops the IJ cannot handle,
//! entries are allocated in the EJ only when the IJ failed to filter them
//! (the substrate reports snoop misses to [`HybridJetty::record_snoop_miss`]
//! only for snoops neither component filtered, and the IJ component ignores
//! them, so the rule falls out naturally). Both components are probed in
//! parallel on every snoop to keep latency off the critical path, so both
//! always pay probe energy.
//!
//! The exclude component is one [`ExcludeJetty`], an EJ or a VEJ as its
//! [`ExcludePart`] says (the VEJ is the same structure with a wider
//! present vector), so every hybrid path calls it directly.
//!
//! Because the IJ component never learns from snoops, its state is the
//! same as a standalone IJ's of the same geometry. Inside a
//! [`FilterBank`](crate::FilterBank) a backup-policy hybrid therefore
//! owns only its exclude side ([`ExcludeSide`]) and reads the bank's one
//! shared IJ; a [`HybridJetty`] is the self-contained pairing of that side
//! with a private IJ, which the eager-allocation ablation keeps.

use std::fmt;

use crate::addr::{AddrSpace, UnitAddr};
use crate::exclude::{ExcludeJetty, ExcludePart};
use crate::filter::{ArraySpec, FilterActivity, MissScope, SnoopFilter, Verdict};
use crate::include::{IncludeConfig, IncludeJetty};

/// When the hybrid's exclude component learns about snoop misses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum EjAllocation {
    /// The paper's policy: the EJ allocates only when the *whole* hybrid
    /// failed to filter (the IJ acts as a filter on EJ insertions,
    /// §3.3).
    #[default]
    Backup,
    /// Ablation variant: the EJ also allocates when the IJ alone filtered
    /// the snoop — a filtered snoop is a guaranteed miss, so this is safe,
    /// but it spends EJ capacity and write energy on snoops the IJ already
    /// handles.
    Eager,
}

/// Configuration for a [`HybridJetty`]: one IJ plus one EJ/VEJ.
///
/// # Examples
///
/// ```
/// use jetty_core::{ExcludeConfig, HybridConfig, IncludeConfig};
///
/// let cfg = HybridConfig::new(IncludeConfig::new(10, 4, 7), ExcludeConfig::new(32, 4));
/// assert_eq!(cfg.label(), "(IJ-10x4x7, EJ-32x4)");
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct HybridConfig {
    /// The include component.
    pub include: IncludeConfig,
    /// The exclude component.
    pub exclude: ExcludePart,
    /// EJ allocation policy (the paper uses [`EjAllocation::Backup`]).
    pub ej_allocation: EjAllocation,
}

impl HybridConfig {
    /// Creates a hybrid configuration with the paper's backup allocation
    /// policy.
    pub fn new(include: IncludeConfig, exclude: impl Into<ExcludePart>) -> Self {
        Self { include, exclude: exclude.into(), ej_allocation: EjAllocation::Backup }
    }

    /// Switches to the eager EJ-allocation ablation variant.
    pub fn with_eager_allocation(mut self) -> Self {
        self.ej_allocation = EjAllocation::Eager;
        self
    }

    /// Paper-style label, e.g. `(IJ-10x4x7, EJ-32x4)`; the eager ablation
    /// variant is suffixed `, eager`.
    pub fn label(&self) -> String {
        match self.ej_allocation {
            EjAllocation::Backup => format!("({}, {})", self.include.label(), self.exclude.label()),
            EjAllocation::Eager => {
                format!("({}, {}, eager)", self.include.label(), self.exclude.label())
            }
        }
    }
}

/// The Hybrid-Jetty filter. See the module docs.
///
/// # Examples
///
/// ```
/// use jetty_core::{AddrSpace, ExcludeConfig, HybridConfig, HybridJetty, IncludeConfig,
///                  SnoopFilter, UnitAddr, Verdict};
///
/// let cfg = HybridConfig::new(IncludeConfig::new(8, 4, 7), ExcludeConfig::new(16, 2));
/// let mut hj = HybridJetty::new(cfg, AddrSpace::default());
/// let unit = UnitAddr::new(0xC0FFEE);
///
/// // Empty cache: IJ filters.
/// assert_eq!(hj.probe(unit), Verdict::NotCached);
/// hj.on_allocate(unit);
/// assert_eq!(hj.probe(unit), Verdict::MaybeCached);
/// ```
#[derive(Clone)]
pub struct HybridJetty {
    include: IncludeJetty,
    side: ExcludeSide,
}

impl fmt::Debug for HybridJetty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.side.fmt(f)
    }
}

impl HybridJetty {
    /// Creates a Hybrid-Jetty for the given address space.
    pub fn new(config: HybridConfig, space: AddrSpace) -> Self {
        Self {
            include: IncludeJetty::new(config.include, space),
            side: ExcludeSide::new(config, space),
        }
    }

    /// The configuration this filter was built with.
    pub fn config(&self) -> HybridConfig {
        self.side.config
    }

    /// Read access to the include component (for tests and diagnostics).
    pub fn include_part(&self) -> &IncludeJetty {
        &self.include
    }

    /// One snoop through the hybrid and its private IJ: the IJ's
    /// branch-free p-bit step, then one fused exclude-part lookup
    /// ([`ExcludeJetty::snoop_step_with`]) that probes and, when the
    /// exclude part did not filter, records what the union verdict lets
    /// it learn — the [`probe`](SnoopFilter::probe) +
    /// [`record_snoop_miss`](SnoopFilter::record_snoop_miss) pair, with
    /// the same counters. Returns whether the hybrid filtered the snoop.
    /// A [`FilterBank`](crate::FilterBank) steps only eager-allocation
    /// hybrids through here: the ablation reads its IJ's p-bits and
    /// mutates the exclude part on IJ-filtered snoops, so its IJ stays
    /// private. Backup-policy hybrids share the bank's IJ and step
    /// through [`ExcludeSide::snoop_step`].
    pub(crate) fn snoop_step(&mut self, addr: UnitAddr, would_hit: bool, scope: MissScope) -> bool {
        let ij_filtered = self.include.snoop_step(addr);
        let learn = !would_hit && scope == MissScope::Block;
        let eager = self.side.config.ej_allocation == EjAllocation::Eager;
        let include = &mut self.include;
        // An IJ-filtered snoop is a guaranteed L2 miss: the eager ablation
        // records it when the whole block is IJ-absent, a backup hybrid
        // never does.
        self.side.snoop_step_with(addr, ij_filtered, || {
            if ij_filtered {
                eager && block_absent(include, addr)
            } else {
                learn
            }
        })
    }

    /// Probes the exclude component and combines its verdict with the
    /// IJ's (already probed) into the hybrid's union verdict, running the
    /// eager ablation's EJ learning on the way.
    fn union(&mut self, addr: UnitAddr, ij_filtered: bool) -> Verdict {
        if self.side.config.ej_allocation == EjAllocation::Backup {
            return self.side.probe(addr, ij_filtered);
        }
        self.side.probes += 1;
        let ej = self.side.exclude.probe(addr);
        if !(ij_filtered || ej.is_filtered()) {
            return Verdict::MaybeCached;
        }
        // Eager ablation: a filtered snoop is a guaranteed L2 miss, so the
        // EJ may record it immediately even though the substrate will not
        // report it (the hybrid filtered it).
        if !ej.is_filtered() {
            let block = block_absent(&mut self.include, addr);
            let scope = if block { MissScope::Block } else { MissScope::Unit };
            self.side.exclude.record_snoop_miss(addr, scope);
        }
        self.side.filtered += 1;
        Verdict::NotCached
    }
}

/// Whether `include` guarantees every unit of `addr`'s block absent, the
/// condition for the eager ablation to record a block-grain miss. Its
/// p-bit reads are charged to `include`.
fn block_absent(include: &mut IncludeJetty, addr: UnitAddr) -> bool {
    let block_units = 1u64 << include.space().block_unit_shift();
    let base = addr.raw() & !(block_units - 1);
    (0..block_units).all(|k| include.guarantees_absent(UnitAddr::new(base | k)))
}

impl SnoopFilter for HybridJetty {
    fn probe(&mut self, addr: UnitAddr) -> Verdict {
        // Both components are probed in parallel (latency), so both always
        // pay energy, even when one alone would have filtered.
        let ij = self.include.probe(addr);
        self.union(addr, ij.is_filtered())
    }

    fn record_snoop_miss(&mut self, addr: UnitAddr, scope: MissScope) {
        // Only reached when neither component filtered, i.e. the IJ failed:
        // allocate in the EJ (the IJ ignores snoop misses by construction).
        self.side.record_snoop_miss(addr, scope);
    }

    fn on_allocate(&mut self, addr: UnitAddr) {
        self.include.on_allocate(addr);
        self.side.on_allocate(addr);
    }

    fn on_deallocate(&mut self, addr: UnitAddr) {
        self.include.on_deallocate(addr);
        self.side.on_deallocate(addr);
    }

    fn arrays(&self) -> Vec<ArraySpec> {
        self.side.arrays(&self.include)
    }

    fn activity(&self) -> FilterActivity {
        self.side.activity(&self.include)
    }

    fn reset_activity(&mut self) {
        self.include.reset_activity();
        self.side.exclude.reset_activity();
        self.side.probes = 0;
        self.side.filtered = 0;
    }

    fn name(&self) -> String {
        self.side.config.label()
    }
}

/// Everything of a hybrid except its IJ: the configuration, the EJ/VEJ
/// component and the union probe/filtered counters. A [`HybridJetty`]
/// pairs it with a private IJ; a [`FilterBank`](crate::FilterBank) pairs
/// each backup-policy hybrid's side with the one IJ state it shares with
/// every other filter of the same IJ geometry. The IJ's arrays and
/// activity are read from whichever IJ the caller passes in, so the
/// hybrid's report is the same either way.
#[derive(Clone)]
pub(crate) struct ExcludeSide {
    config: HybridConfig,
    exclude: ExcludeJetty,
    probes: u64,
    filtered: u64,
}

impl fmt::Debug for ExcludeSide {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HybridJetty")
            .field("config", &self.config)
            .field("probes", &self.probes)
            .field("filtered", &self.filtered)
            .finish()
    }
}

impl ExcludeSide {
    pub(crate) fn new(config: HybridConfig, space: AddrSpace) -> Self {
        Self { config, exclude: ExcludeJetty::new(config.exclude, space), probes: 0, filtered: 0 }
    }

    /// One backup-policy snoop, fused into a single exclude-part lookup:
    /// the union [`probe`](ExcludeSide::probe) and, for a recordable miss
    /// (`learn`: the L2 would miss the whole block) that neither
    /// component filtered, the exclude part's record — the probe +
    /// [`record_snoop_miss`](ExcludeSide::record_snoop_miss) pair.
    /// `ij_filtered` is the shared IJ's verdict for this snoop. Returns
    /// the union verdict.
    #[inline]
    pub(crate) fn snoop_step(&mut self, addr: UnitAddr, ij_filtered: bool, learn: bool) -> bool {
        self.snoop_step_with(addr, ij_filtered, || learn && !ij_filtered)
    }

    /// [`snoop_step`](ExcludeSide::snoop_step) with the exclude part's
    /// record decided by `learn`, called only when the exclude part did
    /// not filter ([`ExcludeJetty::snoop_step_with`]).
    #[inline]
    fn snoop_step_with(
        &mut self,
        addr: UnitAddr,
        ij_filtered: bool,
        learn: impl FnOnce() -> bool,
    ) -> bool {
        self.probes += 1;
        let ej = self.exclude.snoop_step_with(addr, learn);
        let filtered = ij_filtered || ej;
        self.filtered += u64::from(filtered);
        filtered
    }

    /// The backup-policy union verdict of one snoop, given whether the IJ
    /// (probed by the caller) filtered it.
    pub(crate) fn probe(&mut self, addr: UnitAddr, ij_filtered: bool) -> Verdict {
        self.probes += 1;
        let ej = self.exclude.probe(addr);
        if ij_filtered || ej.is_filtered() {
            self.filtered += 1;
            Verdict::NotCached
        } else {
            Verdict::MaybeCached
        }
    }

    pub(crate) fn record_snoop_miss(&mut self, addr: UnitAddr, scope: MissScope) {
        self.exclude.record_snoop_miss(addr, scope);
    }

    pub(crate) fn on_allocate(&mut self, addr: UnitAddr) {
        self.exclude.on_allocate(addr);
    }

    pub(crate) fn on_deallocate(&mut self, addr: UnitAddr) {
        self.exclude.on_deallocate(addr);
    }

    pub(crate) fn name(&self) -> String {
        self.config.label()
    }

    /// The hybrid's arrays: `include`'s, then the exclude component's.
    pub(crate) fn arrays(&self, include: &IncludeJetty) -> Vec<ArraySpec> {
        let mut specs = include.arrays();
        specs.extend(self.exclude.arrays());
        specs
    }

    /// The hybrid's activity: `include`'s array counts, then the exclude
    /// component's, under the union probe/filtered counters.
    pub(crate) fn activity(&self, include: &IncludeJetty) -> FilterActivity {
        let mut arrays = include.activity().arrays;
        arrays.extend(self.exclude.activity().arrays);
        FilterActivity { arrays, probes: self.probes, filtered: self.filtered }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exclude::{ExcludeConfig, VectorExcludeConfig};

    fn hj() -> HybridJetty {
        HybridJetty::new(
            HybridConfig::new(IncludeConfig::new(8, 4, 7), ExcludeConfig::new(16, 2)),
            AddrSpace::default(),
        )
    }

    #[test]
    fn empty_filter_filters_via_ij() {
        let mut f = hj();
        assert_eq!(f.probe(UnitAddr::new(1)), Verdict::NotCached);
    }

    #[test]
    fn cached_unit_never_filtered() {
        let mut f = hj();
        let u = UnitAddr::new(0x1000);
        f.on_allocate(u);
        assert_eq!(f.probe(u), Verdict::MaybeCached);
    }

    #[test]
    fn ej_catches_what_ij_cannot() {
        let mut f = hj();
        // Alias two addresses in all IJ sub-arrays: with IJ-8x4x7 the
        // highest used bit is 7*3 + 8 = 29, so flip bit 34.
        let cached = UnitAddr::new(0x0BAD_CAFE);
        let alias = UnitAddr::new(0x0BAD_CAFE | (1 << 34));
        f.on_allocate(cached);
        // IJ cannot filter the alias...
        assert_eq!(f.probe(alias), Verdict::MaybeCached);
        // ...but after the L2 reported the miss, the EJ can.
        f.record_snoop_miss(alias, MissScope::Block);
        assert_eq!(f.probe(alias), Verdict::NotCached);
    }

    #[test]
    fn allocate_clears_ej_record() {
        let mut f = hj();
        let cached = UnitAddr::new(0x42);
        let alias = UnitAddr::new(0x42 | (1 << 34));
        f.on_allocate(cached);
        f.record_snoop_miss(alias, MissScope::Block);
        assert_eq!(f.probe(alias), Verdict::NotCached);
        // The alias itself gets cached: EJ record must die, and IJ now has
        // both aliases pinned.
        f.on_allocate(alias);
        assert_eq!(f.probe(alias), Verdict::MaybeCached);
    }

    #[test]
    fn hybrid_filters_union_of_components() {
        let mut f = hj();
        let cached = UnitAddr::new(0x77);
        f.on_allocate(cached);
        f.on_deallocate(cached);
        // After deallocation IJ filters again.
        assert_eq!(f.probe(cached), Verdict::NotCached);
    }

    #[test]
    fn probes_touch_both_components() {
        let mut f = hj();
        f.probe(UnitAddr::new(9));
        let act = f.activity();
        // 4 IJ p-bit arrays (even slots of first 8) read once each + EJ tag
        // array (last slot) read once.
        let n = act.arrays.len();
        assert_eq!(n, 9); // 4 * (pbit + cnt) + 1 EJ tags
        assert_eq!(act.arrays[n - 1].reads, 1);
        for i in 0..4 {
            assert_eq!(act.arrays[2 * i].reads, 1);
        }
        assert_eq!(act.probes, 1);
    }

    #[test]
    fn vector_exclude_part_works() {
        let cfg =
            HybridConfig::new(IncludeConfig::new(8, 4, 7), VectorExcludeConfig::new(32, 4, 8));
        assert_eq!(cfg.label(), "(IJ-8x4x7, VEJ-32x4-8)");
        let mut f = HybridJetty::new(cfg, AddrSpace::default());
        let cached = UnitAddr::new(0x0BAD_CAFE);
        let alias = UnitAddr::new(0x0BAD_CAFE | (1 << 34));
        f.on_allocate(cached);
        f.record_snoop_miss(alias, MissScope::Block);
        assert_eq!(f.probe(alias), Verdict::NotCached);
    }

    #[test]
    fn ij_component_is_unaffected_by_snoop_misses() {
        // IJ coverage inside HJ must equal a standalone IJ fed the same
        // allocate/deallocate stream (the paper's reason HJ >= IJ).
        let mut h = hj();
        let mut standalone = IncludeJetty::new(IncludeConfig::new(8, 4, 7), AddrSpace::default());
        let units: Vec<UnitAddr> = (0..64).map(|i| UnitAddr::new(i * 1237)).collect();
        for (k, &u) in units.iter().enumerate() {
            if k % 3 == 0 {
                h.on_allocate(u);
                standalone.on_allocate(u);
            } else {
                h.record_snoop_miss(u, MissScope::Block);
            }
        }
        for &u in &units {
            let hj_ij_says = h.include_part().clone().probe(u);
            let alone_says = standalone.probe(u);
            assert_eq!(hj_ij_says, alone_says);
        }
    }

    #[test]
    fn reset_activity_zeroes_everything() {
        let mut f = hj();
        f.probe(UnitAddr::new(1));
        f.on_allocate(UnitAddr::new(2));
        f.reset_activity();
        let act = f.activity();
        assert_eq!(act.probes, 0);
        assert!(act.arrays.iter().all(|a| a.total() == 0));
    }

    #[test]
    fn storage_is_sum_of_parts() {
        let f = hj();
        let ij = IncludeJetty::new(IncludeConfig::new(8, 4, 7), AddrSpace::default());
        let ej = ExcludeJetty::new(ExcludeConfig::new(16, 2), AddrSpace::default());
        assert_eq!(f.storage_bits(), ij.storage_bits() + ej.storage_bits());
    }

    #[test]
    fn name_label() {
        assert_eq!(hj().name(), "(IJ-8x4x7, EJ-16x2)");
    }

    #[test]
    fn eager_allocation_learns_from_ij_filtered_snoops() {
        let cfg = HybridConfig::new(IncludeConfig::new(8, 4, 7), ExcludeConfig::new(16, 2))
            .with_eager_allocation();
        assert_eq!(cfg.label(), "(IJ-8x4x7, EJ-16x2, eager)");
        let mut f = HybridJetty::new(cfg, AddrSpace::default());
        let absent = UnitAddr::new(0x99);
        // First probe: IJ filters (empty cache) and the eager EJ records.
        assert_eq!(f.probe(absent), Verdict::NotCached);
        // Make the IJ unable to filter by caching an alias, then verify the
        // EJ still covers the absent unit.
        let alias = UnitAddr::new(0x99 | (1 << 34));
        f.on_allocate(alias);
        assert_eq!(f.probe(absent), Verdict::NotCached, "eager EJ should have recorded");
    }

    #[test]
    fn backup_policy_does_not_learn_from_filtered_snoops() {
        let mut f = hj();
        let absent = UnitAddr::new(0x99);
        assert_eq!(f.probe(absent), Verdict::NotCached); // IJ filters
        let alias = UnitAddr::new(0x99 | (1 << 34));
        f.on_allocate(alias);
        // The backup EJ never saw the miss, and the IJ is now blind.
        assert_eq!(f.probe(absent), Verdict::MaybeCached);
    }
}
