//! The do-nothing filter: every snoop probes the L2 tag array, exactly as in
//! an unfiltered SMP. Used as the energy baseline and as a sanity check in
//! tests (a `NullFilter` system must behave identically to one with no
//! filter at all).

use crate::addr::UnitAddr;
use crate::filter::{ArraySpec, FilterActivity, MissScope, SnoopFilter, Verdict};

/// A filter that never filters. Baseline for coverage and energy
/// comparisons.
///
/// # Examples
///
/// ```
/// use jetty_core::{NullFilter, SnoopFilter, UnitAddr, Verdict};
///
/// let mut f = NullFilter::new();
/// assert_eq!(f.probe(UnitAddr::new(1)), Verdict::MaybeCached);
/// assert_eq!(f.storage_bits(), 0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct NullFilter {
    probes: u64,
}

impl NullFilter {
    /// Creates a null filter.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SnoopFilter for NullFilter {
    fn probe(&mut self, _addr: UnitAddr) -> Verdict {
        self.probes += 1;
        Verdict::MaybeCached
    }

    fn record_snoop_miss(&mut self, _addr: UnitAddr, _scope: MissScope) {}

    fn on_allocate(&mut self, _addr: UnitAddr) {}

    fn on_deallocate(&mut self, _addr: UnitAddr) {}

    fn arrays(&self) -> Vec<ArraySpec> {
        Vec::new()
    }

    fn activity(&self) -> FilterActivity {
        FilterActivity { arrays: Vec::new(), probes: self.probes, filtered: 0 }
    }

    fn reset_activity(&mut self) {
        self.probes = 0;
    }

    fn name(&self) -> String {
        "none".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_filters_and_has_no_storage() {
        let mut f = NullFilter::new();
        for i in 0..10 {
            assert_eq!(f.probe(UnitAddr::new(i)), Verdict::MaybeCached);
        }
        f.record_snoop_miss(UnitAddr::new(0), MissScope::Block);
        f.on_allocate(UnitAddr::new(0));
        f.on_deallocate(UnitAddr::new(0));
        assert_eq!(f.probe(UnitAddr::new(0)), Verdict::MaybeCached);
        let act = f.activity();
        assert_eq!(act.probes, 11);
        assert_eq!(act.filtered, 0);
        assert_eq!(f.storage_bits(), 0);
        assert_eq!(f.name(), "none");
    }

    #[test]
    fn reset_clears_probe_count() {
        let mut f = NullFilter::new();
        f.probe(UnitAddr::new(1));
        f.reset_activity();
        assert_eq!(f.activity().probes, 0);
    }
}
