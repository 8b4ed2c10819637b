//! The [`SnoopFilter`] trait and the activity/geometry reporting that the
//! energy model consumes.
//!
//! A JETTY sits between the shared bus and the backside of a node's L2.
//! Every bus snoop first probes the filter; the filter either *guarantees*
//! that the local L2 holds no copy of the snooped coherence unit
//! ([`Verdict::NotCached`], the snoop is filtered and the L2 tag array is
//! never touched) or answers [`Verdict::MaybeCached`], in which case the
//! L2 tag array is probed as in an unfiltered system.
//!
//! Filters are *speculative but safe*: they may fail to filter a snoop that
//! would miss, but they must never filter a snoop to a unit that is cached
//! (paper §2, requirement 3). The SMP substrate enforces this invariant in
//! checked mode, and the property tests in this crate exercise it directly.

use std::fmt;

use crate::addr::UnitAddr;

/// Outcome of probing a snoop filter.
///
/// # Examples
///
/// ```
/// use jetty_core::Verdict;
///
/// assert!(Verdict::NotCached.is_filtered());
/// assert!(!Verdict::MaybeCached.is_filtered());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// The filter guarantees the unit is not present in the local L2;
    /// the snoop-induced tag probe can be skipped.
    NotCached,
    /// The unit may be cached; the L2 tag array must be probed.
    MaybeCached,
}

impl Verdict {
    /// `true` when the verdict filters the snoop (no tag probe needed).
    pub fn is_filtered(self) -> bool {
        matches!(self, Verdict::NotCached)
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::NotCached => f.write_str("not-cached"),
            Verdict::MaybeCached => f.write_str("maybe-cached"),
        }
    }
}

/// How much absence a snoop miss proved, reported back to filters so
/// exclude-style structures know what they may safely record.
///
/// With a subblocked L2 a snoop can miss two ways: the whole tag missed
/// (no subblock of the block is present — the common case, and the one
/// that lets an EJ record the entire block) or the tag matched but the
/// snooped subblock was invalid (only that unit is known absent).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MissScope {
    /// The entire tag block containing the unit is absent.
    Block,
    /// Only the snooped coherence unit is known absent (tag matched, the
    /// sibling subblock may be present).
    Unit,
}

/// The kind of storage array a filter component is built from, used by the
/// energy model to pick per-access cost formulas.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ArrayKind {
    /// An ordinary RAM array read/written one row at a time (IJ p-bit and
    /// cnt arrays, and the EJ/VEJ tag store, which reads one set per probe).
    Sram,
    /// A fully associative match structure (used by the substrate for the
    /// writeback buffer; no JETTY variant in the paper needs a CAM).
    Cam,
}

/// Geometry of one physical storage array inside a filter.
///
/// The energy model turns each spec into a per-access energy using the
/// Kamble–Ghose formulas; the paired [`ArrayActivity`] supplies the access
/// counts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArraySpec {
    /// Human-readable label (`"ej.tags"`, `"ij.pbits[2]"`, ...).
    pub label: String,
    /// Number of rows (word lines).
    pub rows: usize,
    /// Bits read or written per access (columns).
    pub bits_per_row: usize,
    /// Array style.
    pub kind: ArrayKind,
}

impl ArraySpec {
    /// Creates a RAM array spec.
    pub fn sram(label: impl Into<String>, rows: usize, bits_per_row: usize) -> Self {
        Self { label: label.into(), rows, bits_per_row, kind: ArrayKind::Sram }
    }

    /// Total storage of this array in bits.
    pub fn storage_bits(&self) -> usize {
        self.rows * self.bits_per_row
    }
}

/// Read/write access counts for one array, aligned index-for-index with the
/// filter's [`SnoopFilter::arrays`] list.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArrayActivity {
    /// Number of row reads.
    pub reads: u64,
    /// Number of row writes.
    pub writes: u64,
}

impl ArrayActivity {
    /// Sum of reads and writes.
    pub fn total(&self) -> u64 {
        self.reads + self.writes
    }
}

/// A filter's accumulated activity since construction.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FilterActivity {
    /// Per-array access counts, aligned with [`SnoopFilter::arrays`].
    pub arrays: Vec<ArrayActivity>,
    /// Snoop probes observed.
    pub probes: u64,
    /// Snoop probes answered [`Verdict::NotCached`].
    pub filtered: u64,
}

impl FilterActivity {
    /// Creates an activity record with `n` zeroed array slots.
    pub fn with_arrays(n: usize) -> Self {
        Self { arrays: vec![ArrayActivity::default(); n], probes: 0, filtered: 0 }
    }

    /// Fraction of probes filtered, in `[0, 1]`; `0` when no probes occurred.
    pub fn filter_rate(&self) -> f64 {
        if self.probes == 0 {
            0.0
        } else {
            self.filtered as f64 / self.probes as f64
        }
    }
}

/// One deferred filter notification, as logged by the SMP substrate's
/// batched hot path, packed into one 8-byte word.
///
/// Filters are pure bystanders: their state depends only on the ordered
/// sequence of notifications *they themselves* receive, never on protocol
/// state. The substrate exploits this by logging one compact event per
/// notification while it simulates references scalar-fashion, then
/// replaying each node's event list through its bank
/// ([`FilterBank::apply_batch`](crate::FilterBank::apply_batch)), event by
/// event, with the bank's independent filters stepped side by side so
/// their serial update chains overlap. Replaying the events in order is
/// *exactly* equivalent to the eager calls, including energy accounting.
///
/// The word holds the unit in its high [`FilterEvent::UNIT_BITS`] bits and
/// the kind, `would_hit` and scope in its low three, so a log costs 8 bytes
/// per event where the enum it replaces cost 16. Build events with
/// [`FilterEvent::snoop`], [`FilterEvent::allocate`] and
/// [`FilterEvent::deallocate`]; match on the decoded [`EventView`] from
/// [`FilterEvent::view`]. A unit wider than `UNIT_BITS` bits is rejected
/// with a panic (`SystemConfig::validate` in `jetty-sim` rejects address
/// spaces that could produce one).
///
/// # Examples
///
/// ```
/// use jetty_core::{EventView, FilterEvent, MissScope, UnitAddr};
///
/// let ev = FilterEvent::snoop(UnitAddr::new(7), false, MissScope::Block);
/// assert_eq!(std::mem::size_of::<FilterEvent>(), 8);
/// assert!(matches!(ev.view(), EventView::Snoop { would_hit: false, .. }));
/// assert_eq!(ev.unit(), UnitAddr::new(7));
/// ```
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct FilterEvent(u64);

/// A [`FilterEvent`] decoded for matching (and its `Debug` form).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventView {
    /// A bus snoop probed this node: the filter is probed, and — when the
    /// snoop was not filtered and the L2 would miss (`!would_hit`) — the
    /// filter learns the miss via
    /// [`record_snoop_miss`](SnoopFilter::record_snoop_miss) with `scope`.
    /// `would_hit` also drives the safety assertion: a filter that claims
    /// [`Verdict::NotCached`] for a cached unit is unsafe.
    Snoop {
        /// The snooped coherence unit.
        unit: UnitAddr,
        /// Whether the local L2 holds a valid copy (snoop would hit).
        would_hit: bool,
        /// Absence scope proven by the L2 tag probe on a miss.
        scope: MissScope,
    },
    /// The local L2 gained a valid copy ([`on_allocate`](SnoopFilter::on_allocate)).
    Allocate(UnitAddr),
    /// The local L2 lost a valid copy ([`on_deallocate`](SnoopFilter::on_deallocate)).
    Deallocate(UnitAddr),
}

impl FilterEvent {
    /// Widest unit address an event can carry, in bits.
    pub const UNIT_BITS: u32 = 61;
    /// Low bits holding the kind, `would_hit` and scope.
    const CODE_BITS: u32 = 64 - Self::UNIT_BITS;
    const ALLOCATE: u64 = 0b000;
    const DEALLOCATE: u64 = 0b001;
    /// Set for a snoop, whose two low bits are then `would_hit` (bit 0)
    /// and a unit-scope miss (bit 1).
    const SNOOP: u64 = 0b100;
    const WOULD_HIT: u64 = 0b001;
    const UNIT_SCOPE: u64 = 0b010;

    /// A bus snoop to `unit` (see [`EventView::Snoop`]).
    ///
    /// # Panics
    ///
    /// Panics if `unit` is wider than [`FilterEvent::UNIT_BITS`] bits.
    #[inline]
    pub fn snoop(unit: UnitAddr, would_hit: bool, scope: MissScope) -> Self {
        let scope = if scope == MissScope::Unit { Self::UNIT_SCOPE } else { 0 };
        let would_hit = if would_hit { Self::WOULD_HIT } else { 0 };
        Self::pack(unit, Self::SNOOP | scope | would_hit)
    }

    /// The local L2 gained `unit` (see [`EventView::Allocate`]).
    ///
    /// # Panics
    ///
    /// Panics if `unit` is wider than [`FilterEvent::UNIT_BITS`] bits.
    #[inline]
    pub fn allocate(unit: UnitAddr) -> Self {
        Self::pack(unit, Self::ALLOCATE)
    }

    /// The local L2 lost `unit` (see [`EventView::Deallocate`]).
    ///
    /// # Panics
    ///
    /// Panics if `unit` is wider than [`FilterEvent::UNIT_BITS`] bits.
    #[inline]
    pub fn deallocate(unit: UnitAddr) -> Self {
        Self::pack(unit, Self::DEALLOCATE)
    }

    #[inline]
    fn pack(unit: UnitAddr, code: u64) -> Self {
        if unit.raw() >> Self::UNIT_BITS != 0 {
            unit_too_wide(unit);
        }
        Self(unit.raw() << Self::CODE_BITS | code)
    }

    /// The coherence unit the event concerns.
    #[inline]
    pub fn unit(self) -> UnitAddr {
        UnitAddr::new(self.0 >> Self::CODE_BITS)
    }

    /// The event decoded for matching.
    #[inline]
    pub fn view(self) -> EventView {
        let unit = self.unit();
        let code = self.0 & ((1 << Self::CODE_BITS) - 1);
        if code & Self::SNOOP != 0 {
            let scope =
                if code & Self::UNIT_SCOPE != 0 { MissScope::Unit } else { MissScope::Block };
            EventView::Snoop { unit, would_hit: code & Self::WOULD_HIT != 0, scope }
        } else if code == Self::DEALLOCATE {
            EventView::Deallocate(unit)
        } else {
            EventView::Allocate(unit)
        }
    }
}

impl fmt::Debug for FilterEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.view().fmt(f)
    }
}

/// Panics with the named message for a unit no [`FilterEvent`] can carry.
#[cold]
#[inline(never)]
fn unit_too_wide(unit: UnitAddr) -> ! {
    panic!(
        "FilterEvent: unit {unit} is wider than the {} bits an event carries",
        FilterEvent::UNIT_BITS
    );
}

/// Panics with the standard filter-safety message: the filter called
/// `name` answered `NotCached` for a snoop to `unit` although the unit was
/// cached on `node`. Both replay entry points of a
/// [`FilterBank`](crate::FilterBank) report through here, so the message
/// names the filter, unit and node the same way on every path.
#[cold]
#[inline(never)]
pub(crate) fn unsafe_filter(name: &str, unit: UnitAddr, node: usize) -> ! {
    panic!("UNSAFE FILTER: {name} filtered a snoop to cached unit {unit} on node {node}");
}

/// A snoop filter in the JETTY family.
///
/// The SMP substrate drives a filter through four notifications:
///
/// 1. [`probe`](SnoopFilter::probe) on every bus snoop destined for this
///    node (reads the filter's arrays);
/// 2. [`record_snoop_miss`](SnoopFilter::record_snoop_miss) when an
///    *unfiltered* snoop subsequently missed in the local L2 (lets
///    exclude-style filters learn);
/// 3. [`on_allocate`](SnoopFilter::on_allocate) when the local L2 gains a
///    valid copy of a coherence unit (fills);
/// 4. [`on_deallocate`](SnoopFilter::on_deallocate) when the local L2 loses
///    one (evictions and snoop invalidations).
///
/// # Safety contract
///
/// After any interleaving of these calls in which every unit's
/// allocate/deallocate events are balanced, `probe(u)` may return
/// [`Verdict::NotCached`] only if `u` is not currently allocated. Filters in
/// this crate uphold the contract structurally; the substrate re-checks it
/// in checked mode.
///
/// # Threading
///
/// `Send` is a supertrait: a filter (and therefore a whole simulated
/// system) can be moved to a worker thread, which is how the parallel
/// experiment engine runs independent simulations concurrently. Filters
/// are still driven single-threaded — `Sync` is *not* required.
pub trait SnoopFilter: fmt::Debug + Send {
    /// Probes the filter for a bus snoop to `addr`.
    fn probe(&mut self, addr: UnitAddr) -> Verdict;

    /// Informs the filter that an unfiltered snoop to `addr` probed the
    /// local L2 tag array and missed, with the proven absence `scope`.
    fn record_snoop_miss(&mut self, addr: UnitAddr, scope: MissScope);

    /// Informs the filter that the local L2 now holds a valid copy of
    /// `addr`.
    fn on_allocate(&mut self, addr: UnitAddr);

    /// Informs the filter that the local L2 no longer holds a valid copy of
    /// `addr`.
    fn on_deallocate(&mut self, addr: UnitAddr);

    /// The physical arrays this filter is built from, for storage/energy
    /// estimation.
    fn arrays(&self) -> Vec<ArraySpec>;

    /// Access counts accumulated so far, aligned with [`arrays`](Self::arrays).
    fn activity(&self) -> FilterActivity;

    /// Short configuration name, e.g. `"EJ-32x4"` or `"IJ-10x4x7"`.
    fn name(&self) -> String;

    /// Total storage in bits across all arrays.
    fn storage_bits(&self) -> usize {
        self.arrays().iter().map(ArraySpec::storage_bits).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_filtering() {
        assert!(Verdict::NotCached.is_filtered());
        assert!(!Verdict::MaybeCached.is_filtered());
        assert_eq!(Verdict::NotCached.to_string(), "not-cached");
        assert_eq!(Verdict::MaybeCached.to_string(), "maybe-cached");
    }

    #[test]
    fn array_spec_storage() {
        let spec = ArraySpec::sram("t", 32, 124);
        assert_eq!(spec.storage_bits(), 32 * 124);
        assert_eq!(spec.kind, ArrayKind::Sram);
    }

    #[test]
    fn activity_filter_rate() {
        let mut a = FilterActivity::with_arrays(2);
        assert_eq!(a.filter_rate(), 0.0);
        a.probes = 10;
        a.filtered = 4;
        assert!((a.filter_rate() - 0.4).abs() < 1e-12);
        assert_eq!(a.arrays.len(), 2);
    }

    #[test]
    fn events_round_trip_every_kind_and_flag_at_both_unit_extremes() {
        let widest = UnitAddr::new((1 << FilterEvent::UNIT_BITS) - 1);
        for unit in [UnitAddr::new(0), widest] {
            for would_hit in [false, true] {
                for scope in [MissScope::Block, MissScope::Unit] {
                    let ev = FilterEvent::snoop(unit, would_hit, scope);
                    assert_eq!(ev.view(), EventView::Snoop { unit, would_hit, scope });
                    assert_eq!(ev.unit(), unit);
                }
            }
            assert_eq!(FilterEvent::allocate(unit).view(), EventView::Allocate(unit));
            assert_eq!(FilterEvent::deallocate(unit).view(), EventView::Deallocate(unit));
        }
        assert_eq!(std::mem::size_of::<FilterEvent>(), 8);
        assert_eq!(
            format!("{:?}", FilterEvent::deallocate(UnitAddr::new(5))),
            "Deallocate(UnitAddr(5))"
        );
    }

    #[test]
    #[should_panic(expected = "FilterEvent: unit u0x2000000000000000 is wider than the 61 bits")]
    fn events_reject_a_62_bit_unit() {
        let _ = FilterEvent::allocate(UnitAddr::new(1 << 61));
    }

    #[test]
    fn array_activity_total() {
        let a = ArrayActivity { reads: 3, writes: 4 };
        assert_eq!(a.total(), 7);
    }
}
