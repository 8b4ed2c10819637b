//! # jetty-core — snoop filters for bus-based SMPs
//!
//! This crate implements the JETTY family of snoop filters from
//! *Moshovos, Memik, Falsafi, Choudhary, "JETTY: Filtering Snoops for
//! Reduced Energy Consumption in SMP Servers", HPCA 2001*.
//!
//! In a snoopy, bus-based SMP every bus transaction probes the L2 tag array
//! of every other processor — and the overwhelming majority of those probes
//! miss, wasting the (considerable) energy of a large, high-associativity
//! tag lookup. A JETTY is a tiny structure on the bus side of each L2 that
//! answers most of those would-miss snoops itself:
//!
//! * [`ExcludeJetty`] (EJ) remembers recently snooped units that missed —
//!   a *subset* of what is not cached; built from a
//!   [`VectorExcludeConfig`], the same type is the Vector-Exclude-Jetty
//!   (VEJ), whose entries widen the present bit into a present-vector to
//!   exploit spatial locality;
//! * [`IncludeJetty`] (IJ) keeps counting-Bloom-filter sub-arrays over the
//!   cache contents — a *superset* of what is cached;
//! * [`HybridJetty`] (HJ) probes an IJ and an EJ in parallel and filters
//!   when either can.
//!
//! All variants uphold the paper's safety requirement: a filtered snoop is a
//! *guarantee* that no local copy exists, so the coherence protocol is
//! unchanged and no performance is lost.
//!
//! ## Quick start
//!
//! ```
//! use jetty_core::{AddrSpace, FilterSpec, SnoopFilter, UnitAddr, Verdict};
//!
//! // The paper's best configuration: (IJ-10x4x7, EJ-32x4).
//! let space = AddrSpace::default();
//! let mut jetty = FilterSpec::hybrid_scalar(10, 4, 7, 32, 4).build(space);
//!
//! // The cache fills a unit -> the filter tracks it.
//! let unit = space.unit_of(0x8000);
//! jetty.on_allocate(unit);
//!
//! // Snoop to a different unit: filtered, no L2 tag probe needed.
//! assert_eq!(jetty.probe(space.unit_of(0xF000)), Verdict::NotCached);
//! // Snoop to the cached unit: passes through, as it must.
//! assert_eq!(jetty.probe(unit), Verdict::MaybeCached);
//! ```
//!
//! ## Energy accounting
//!
//! Filters describe their physical storage ([`SnoopFilter::arrays`]) and
//! count per-array accesses ([`SnoopFilter::activity`]); the `jetty-energy`
//! crate converts both into joules with a Kamble–Ghose SRAM model so that
//! the filter's own consumption is charged against its savings, exactly as
//! in the paper's §4.4.

// The filters and their replay are safe, portable Rust: no intrinsics,
// no `unsafe`.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod bank;
mod exclude;
mod filter;
mod hybrid;
mod include;
pub mod kernels;
mod null;
mod spec;

pub use addr::{AddrSpace, UnitAddr};
pub use bank::FilterBank;
pub use exclude::{ExcludeConfig, ExcludeJetty, ExcludePart, VectorExcludeConfig};
pub use filter::{
    ArrayActivity, ArrayKind, ArraySpec, EventView, FilterActivity, FilterEvent, MissScope,
    SnoopFilter, Verdict,
};
pub use hybrid::{EjAllocation, HybridConfig, HybridJetty};
pub use include::{IncludeConfig, IncludeJetty};
pub use null::NullFilter;
pub use spec::FilterSpec;
