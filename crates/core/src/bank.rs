//! A node's filter bank: every configuration under evaluation, observing
//! one node's snoop stream side by side.
//!
//! Filters are pure bystanders (paper methodology), so a bank of them
//! yields coverage and activity for every configuration from one
//! simulation. The bank also removes the one redundancy that leaves
//! behind: an Include-Jetty's state is a pure function of the node's
//! allocate/deallocate stream — snoops and `record_snoop_miss` never
//! change it — so every standalone IJ and every backup-policy hybrid of
//! one [`IncludeConfig`] would hold the *same* counters and p-bits. The
//! bank keeps exactly one live IJ per distinct geometry, steps it once per
//! event, and hands its verdict to each backup hybrid's EJ/VEJ step. The
//! paper bank's 5 standalone IJs and 7 hybrids thereby step 5 IJ states
//! instead of 12.
//!
//! Per-filter activity is unchanged by the sharing: every IJ charge is
//! derived from counts the shared state accumulates identically for each
//! of its users (probes, allocates, deallocates, per-sub-array p-bit
//! writes). The exception is the eager-allocation hybrid ablation, whose
//! `guarantees_absent` reads charge *extra* p-bit reads to its IJ — it
//! keeps a private IJ so those charges stay its own.
//!
//! Replay is event-major: each event steps every shared IJ, then every
//! member in bank order, through one fused step per filter kind — for an
//! EJ/VEJ a single set lookup that probes, stamps the LRU clock and
//! records. Each filter's update is a serial dependency chain (its LRU
//! clock, and the stamps and keys of one set); stepping a bank's
//! independent filters side by side per event lets an out-of-order core
//! overlap those chains, where a pass per filter would run them one after
//! another. The batched flush ([`FilterBank::apply_batch`]) is just a loop
//! over the per-event entry points ([`FilterBank::snoop`],
//! [`FilterBank::on_allocate`], [`FilterBank::on_deallocate`]), so both
//! paths run the same steps, and the consistency check
//! ([`FilterBank::probe`]) reads the same live states: no mode exists in
//! which a copy could drift.

use crate::addr::{AddrSpace, UnitAddr};
use crate::exclude::ExcludeJetty;
use crate::filter::{
    ArraySpec, EventView, FilterActivity, FilterEvent, MissScope, SnoopFilter, Verdict,
};
use crate::hybrid::{EjAllocation, ExcludeSide, HybridJetty};
use crate::include::{IncludeConfig, IncludeJetty};
use crate::null::NullFilter;
use crate::spec::FilterSpec;

/// One node's filters, built from a [`FilterSpec`] list, with one live
/// Include-Jetty per distinct IJ geometry (see the module docs). Members
/// are addressed by their index in the spec list.
///
/// # Examples
///
/// ```
/// use jetty_core::{AddrSpace, FilterBank, FilterSpec, UnitAddr, Verdict};
///
/// let specs = [FilterSpec::include(8, 4, 7), FilterSpec::hybrid_scalar(8, 4, 7, 16, 2)];
/// let mut bank = FilterBank::new(&specs, AddrSpace::default());
/// assert_eq!(bank.len(), 2);
///
/// let unit = UnitAddr::new(0xBEEF);
/// bank.on_allocate(unit);
/// assert_eq!(bank.probe(unit), vec![Verdict::MaybeCached; 2]);
/// assert_eq!(bank.activity(0).probes, 1);
/// ```
#[derive(Clone, Debug)]
pub struct FilterBank {
    includes: Vec<SharedInclude>,
    members: Vec<Member>,
}

/// The one live IJ state of a geometry, with its verdict for the snoop
/// in flight.
#[derive(Clone, Debug)]
struct SharedInclude {
    ij: IncludeJetty,
    /// Whether the IJ filtered the snoop in flight; its users read it.
    filtered: bool,
}

/// One bank member. IJ users hold an index into `FilterBank::includes`.
// Members are stored by value (no per-probe pointer chase), except the
// eager-allocation ablation's hybrid: by value it would make every member
// 376 bytes instead of 224, and `System` construction cost is
// allocator-sensitive (ARCHITECTURE §2a.1): a 376-byte member doubled
// checked-paper's `setup_s`.
#[derive(Clone, Debug)]
enum Member {
    Null(NullFilter),
    Exclude(ExcludeJetty),
    /// A standalone IJ: the shared state itself.
    Include(usize),
    /// A backup-policy hybrid: its exclude side over the shared IJ.
    Hybrid(usize, ExcludeSide),
    /// An eager-allocation hybrid, with its private IJ.
    Eager(Box<HybridJetty>),
}

impl FilterBank {
    /// Builds one node's bank: one member per spec, in order, sharing one
    /// IJ state among the standalone IJs and backup-policy hybrids of each
    /// distinct [`IncludeConfig`].
    pub fn new(specs: &[FilterSpec], space: AddrSpace) -> Self {
        let mut includes: Vec<SharedInclude> = Vec::new();
        let mut shared = |config: IncludeConfig| {
            if let Some(k) = includes.iter().position(|s| s.ij.config() == config) {
                return k;
            }
            includes.push(SharedInclude { ij: IncludeJetty::new(config, space), filtered: false });
            includes.len() - 1
        };
        let members = specs
            .iter()
            .map(|spec| match *spec {
                FilterSpec::Null => Member::Null(NullFilter::new()),
                FilterSpec::Exclude(c) | FilterSpec::VectorExclude(c) => {
                    Member::Exclude(ExcludeJetty::new(c, space))
                }
                FilterSpec::Include(c) => Member::Include(shared(c)),
                FilterSpec::Hybrid(c) if c.ej_allocation == EjAllocation::Backup => {
                    Member::Hybrid(shared(c.include), ExcludeSide::new(c, space))
                }
                FilterSpec::Hybrid(c) => Member::Eager(Box::new(HybridJetty::new(c, space))),
            })
            .collect();
        Self { includes, members }
    }

    /// Number of members (the spec list's length).
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` for a bank built from an empty spec list.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Replays a node's deferred event chunk through the bank, event by
    /// event through the per-event entry points — exactly the calls the
    /// substrate would have made eagerly. `node` only labels the
    /// filter-safety panic (see [`FilterBank::snoop`]).
    pub fn apply_batch(&mut self, events: &[FilterEvent], node: usize) {
        for event in events {
            match event.view() {
                EventView::Snoop { unit, would_hit, scope } => {
                    self.snoop(unit, would_hit, scope, node)
                }
                EventView::Allocate(unit) => self.on_allocate(unit),
                EventView::Deallocate(unit) => self.on_deallocate(unit),
            }
        }
    }

    /// A snoop to `unit` on `node`: each shared IJ steps once, then each
    /// member in bank order steps through its kind's fused step — probe
    /// and, for a genuine block-scope miss it did not filter, record.
    /// A member that filters a snoop to a cached unit (`would_hit`)
    /// panics with the UNSAFE FILTER message naming it, the unit and
    /// `node`. Replay is in event order, so the panic names the earliest
    /// offending event, and the first offending member in bank order.
    #[inline]
    pub fn snoop(&mut self, unit: UnitAddr, would_hit: bool, scope: MissScope, node: usize) {
        for shared in &mut self.includes {
            shared.filtered = shared.ij.snoop_step(unit);
        }
        let learn = !would_hit && scope == MissScope::Block;
        let includes = &self.includes;
        let mut offender = None;
        for (k, member) in self.members.iter_mut().enumerate() {
            let filtered = match member {
                Member::Null(f) => f.probe(unit).is_filtered(),
                Member::Exclude(f) => f.snoop_step(unit, learn),
                Member::Include(i) => includes[*i].filtered,
                Member::Hybrid(i, side) => side.snoop_step(unit, includes[*i].filtered, learn),
                Member::Eager(f) => f.snoop_step(unit, would_hit, scope),
            };
            if filtered && would_hit {
                offender = Some(k);
                break;
            }
        }
        if let Some(k) = offender {
            crate::filter::unsafe_filter(&self.name(k), unit, node);
        }
    }

    /// Probes every member for a snoop to `unit` (each shared IJ once)
    /// and returns the verdicts in bank order, teaching nothing — the
    /// consistency check's view of the live states.
    pub fn probe(&mut self, unit: UnitAddr) -> Vec<Verdict> {
        self.probe_includes(unit);
        (0..self.members.len()).map(|k| self.probe_member(k, unit)).collect()
    }

    /// The local L2 gained `unit`: every member (each shared IJ once)
    /// learns it.
    #[inline]
    pub fn on_allocate(&mut self, unit: UnitAddr) {
        for shared in &mut self.includes {
            shared.ij.on_allocate(unit);
        }
        for member in &mut self.members {
            match member {
                Member::Null(_) | Member::Include(_) => {}
                Member::Exclude(f) => f.on_allocate(unit),
                Member::Hybrid(_, side) => side.on_allocate(unit),
                Member::Eager(f) => f.on_allocate(unit),
            }
        }
    }

    /// The local L2 lost `unit`: every IJ state (each shared IJ once, and
    /// each eager hybrid's private one) learns it. Exclude parts never
    /// change on a deallocate.
    #[inline]
    pub fn on_deallocate(&mut self, unit: UnitAddr) {
        for shared in &mut self.includes {
            shared.ij.on_deallocate(unit);
        }
        for member in &mut self.members {
            if let Member::Eager(f) = member {
                f.on_deallocate(unit);
            }
        }
    }

    /// Paper-style name of member `k`.
    pub fn name(&self, k: usize) -> String {
        match &self.members[k] {
            Member::Null(f) => f.name(),
            Member::Exclude(f) => f.name(),
            Member::Include(i) => self.includes[*i].ij.name(),
            Member::Hybrid(_, side) => side.name(),
            Member::Eager(f) => f.name(),
        }
    }

    /// The physical arrays of member `k`.
    pub fn arrays(&self, k: usize) -> Vec<ArraySpec> {
        match &self.members[k] {
            Member::Null(f) => f.arrays(),
            Member::Exclude(f) => f.arrays(),
            Member::Include(i) => self.includes[*i].ij.arrays(),
            Member::Hybrid(i, side) => side.arrays(&self.includes[*i].ij),
            Member::Eager(f) => f.arrays(),
        }
    }

    /// Total storage of member `k` in bits.
    pub fn storage_bits(&self, k: usize) -> usize {
        self.arrays(k).iter().map(ArraySpec::storage_bits).sum()
    }

    /// Access counts member `k` accumulated, aligned with
    /// [`FilterBank::arrays`].
    pub fn activity(&self, k: usize) -> FilterActivity {
        match &self.members[k] {
            Member::Null(f) => f.activity(),
            Member::Exclude(f) => f.activity(),
            Member::Include(i) => self.includes[*i].ij.activity(),
            Member::Hybrid(i, side) => side.activity(&self.includes[*i].ij),
            Member::Eager(f) => f.activity(),
        }
    }

    /// Probes each shared IJ once for the snoop in flight.
    fn probe_includes(&mut self, unit: UnitAddr) {
        for shared in &mut self.includes {
            shared.filtered = shared.ij.probe(unit).is_filtered();
        }
    }

    /// Member `k`'s verdict for the snoop in flight (shared IJs already
    /// probed by [`FilterBank::probe_includes`]).
    fn probe_member(&mut self, k: usize, unit: UnitAddr) -> Verdict {
        match &mut self.members[k] {
            Member::Null(f) => f.probe(unit),
            Member::Exclude(f) => f.probe(unit),
            Member::Include(i) if self.includes[*i].filtered => Verdict::NotCached,
            Member::Include(_) => Verdict::MaybeCached,
            Member::Hybrid(i, side) => side.probe(unit, self.includes[*i].filtered),
            Member::Eager(f) => f.probe(unit),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shared_geometry_bank() -> Vec<FilterSpec> {
        vec![
            FilterSpec::include(8, 4, 7),
            FilterSpec::hybrid_scalar(8, 4, 7, 16, 2),
            FilterSpec::hybrid_vector(8, 4, 7, 32, 4, 8),
            FilterSpec::hybrid_scalar_eager(8, 4, 7, 16, 2),
            FilterSpec::exclude(16, 2),
            FilterSpec::include(6, 5, 6),
        ]
    }

    #[test]
    fn one_live_include_per_geometry_and_eager_keeps_its_own() {
        let bank = FilterBank::new(&shared_geometry_bank(), AddrSpace::default());
        assert_eq!(bank.len(), 6);
        assert_eq!(bank.includes.len(), 2, "IJ-8x4x7 and IJ-6x5x6");
        assert!(matches!(bank.members[3], Member::Eager(_)));
        let paper = FilterBank::new(&FilterSpec::paper_bank(), AddrSpace::default());
        assert_eq!(paper.includes.len(), 5, "five IJ geometries serve 5 IJs and 7 hybrids");
        assert!(FilterBank::new(&[], AddrSpace::default()).is_empty());
    }

    #[test]
    fn members_report_like_standalone_filters() {
        let specs = shared_geometry_bank();
        let space = AddrSpace::default();
        let mut bank = FilterBank::new(&specs, space);
        let mut alone: Vec<Box<dyn SnoopFilter>> = specs.iter().map(|s| s.build(space)).collect();
        let units: Vec<UnitAddr> = (0..200u64).map(|i| UnitAddr::new(i * 1237 % 4096)).collect();
        let mut cached = std::collections::BTreeSet::new();
        for (i, &u) in units.iter().enumerate() {
            if i % 3 == 0 && cached.insert(u.raw()) {
                bank.on_allocate(u);
                alone.iter_mut().for_each(|f| f.on_allocate(u));
            } else if i % 7 == 0 && cached.remove(&u.raw()) {
                bank.on_deallocate(u);
                alone.iter_mut().for_each(|f| f.on_deallocate(u));
            } else {
                let would_hit = cached.contains(&u.raw());
                bank.snoop(u, would_hit, MissScope::Unit, 0);
                for f in &mut alone {
                    if !f.probe(u).is_filtered() && !would_hit {
                        f.record_snoop_miss(u, MissScope::Unit);
                    }
                }
            }
        }
        for (k, f) in alone.iter().enumerate() {
            assert_eq!(bank.name(k), f.name());
            assert_eq!(bank.activity(k), f.activity(), "{}", f.name());
            assert_eq!(bank.arrays(k), f.arrays(), "{}", f.name());
            assert_eq!(bank.storage_bits(k), f.storage_bits(), "{}", f.name());
        }
    }

    #[test]
    #[should_panic(expected = "UNSAFE FILTER: IJ-8x4x7 filtered a snoop to cached unit")]
    fn batched_unsafe_include_names_the_filter_and_node() {
        // An empty IJ filters everything, so a snoop claiming a cached
        // unit must trip the safety check on the first IJ user.
        let mut bank = FilterBank::new(&shared_geometry_bank(), AddrSpace::default());
        let lie = FilterEvent::snoop(UnitAddr::new(5), true, MissScope::Unit);
        bank.apply_batch(&[lie], 3);
    }

    #[test]
    #[should_panic(
        expected = "UNSAFE FILTER: (IJ-9x4x7, EJ-32x4) filtered a snoop to cached unit u0x5 on node 2"
    )]
    fn batched_unsafe_hybrid_names_the_hybrid_and_node() {
        let mut bank =
            FilterBank::new(&[FilterSpec::hybrid_scalar(9, 4, 7, 32, 4)], AddrSpace::default());
        let lie = FilterEvent::snoop(UnitAddr::new(5), true, MissScope::Unit);
        bank.apply_batch(&[lie], 2);
    }

    #[test]
    #[should_panic(expected = "on node 1")]
    fn per_event_unsafe_snoop_names_the_node() {
        let mut bank = FilterBank::new(&shared_geometry_bank(), AddrSpace::default());
        bank.snoop(UnitAddr::new(5), true, MissScope::Unit, 1);
    }
}
