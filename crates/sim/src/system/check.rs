//! The invariant checker and the checker-backed memory model.
//!
//! With [`CheckLevel::Full`](crate::CheckLevel::Full) the system tracks
//! data versions end to end (memory's copy, the latest store, each cache's
//! copy) and asserts after every transaction that:
//!
//! * reads observe the newest written data (no lost updates, no stale
//!   supplies),
//! * the protocol's single-writer invariants hold (at most one `M`/`E`
//!   holder, at most one `O` holder, an exclusive copy is the sole copy),
//! * no node holds a state outside its protocol's subset (e.g. `Owned`
//!   under MESI),
//! * L1 ⊆ L2 inclusion holds for the touched unit.
//!
//! The filter-safety assertion itself lives on the snoop path
//! ([`bus`](super::bus)) and runs at every check level.

use jetty_core::UnitAddr;

use crate::bus::SnoopResponse;
use crate::moesi::Moesi;
use crate::protocol::CoherenceProtocol;
use crate::system::System;
use crate::wb::WbEntry;

impl System {
    /// Completes a writeback's journey: memory now holds this version.
    pub(super) fn retire_to_memory(&mut self, entry: WbEntry) {
        self.update_memory(entry.unit, entry.version);
    }

    /// Records that memory was written with `version` for `unit` (WB
    /// drains, and the snoop-time updates MESI/MSI pay on dirty supplies).
    pub(super) fn update_memory(&mut self, unit: UnitAddr, version: u64) {
        if self.config.check.is_full() {
            self.memory_versions.insert(unit.raw(), version);
        }
    }

    /// Version the requester receives for a fill, given the snoop response.
    pub(super) fn incoming_version(&mut self, unit: UnitAddr, response: &SnoopResponse) -> u64 {
        if let Some(v) = response.supplied_version {
            return v;
        }
        if self.config.check.is_full() && !response.supplied_by_wb {
            // Memory supplies: its copy must be current.
            let mem = self.memory_versions.get(unit.raw()).unwrap_or(0);
            let latest = self.latest_versions.get(unit.raw()).unwrap_or(0);
            assert_eq!(
                mem, latest,
                "memory supplied stale data for {unit}: memory v{mem}, latest v{latest}"
            );
            return mem;
        }
        // Unchecked mode (or WB supply handled inside the snoop): versions
        // are advisory; WB supplies set `supplied_version` too, so 0 here.
        self.memory_versions.get(unit.raw()).unwrap_or(0)
    }

    /// Asserts that a completed read observed the newest written data.
    pub(super) fn check_read(&self, cpu: usize, unit: UnitAddr) {
        if !self.config.check.is_full() {
            return;
        }
        let latest = self.latest_versions.get(unit.raw()).unwrap_or(0);
        let seen = self.nodes[cpu].l2.version(unit);
        assert_eq!(
            seen, latest,
            "stale read: cpu{cpu} read {unit} at v{seen}, latest is v{latest}"
        );
    }

    /// Asserts the protocol's single-writer and state-subset invariants
    /// for `unit`: one counting pass over the nodes, which allocates only
    /// to report a failure.
    pub(super) fn check_invariants(&self, unit: UnitAddr) {
        if !self.config.check.is_full() {
            return;
        }
        let (mut valid, mut exclusive, mut owners) = (0, 0, 0);
        for (i, node) in self.nodes.iter().enumerate() {
            let s = node.l2.state(unit);
            assert!(
                self.config.protocol.allows(s),
                "node {i} holds {s} for {unit}, outside the {} state set",
                self.config.protocol.name()
            );
            valid += usize::from(s.is_valid());
            exclusive += usize::from(matches!(s, Moesi::Modified | Moesi::Exclusive));
            owners += usize::from(s == Moesi::Owned);
        }
        if exclusive > 1 || owners > 1 || (exclusive == 1 && valid != 1) {
            self.single_writer_violated(unit, valid, exclusive, owners);
        }
        // Inclusion for the touched unit in every node.
        for (i, node) in self.nodes.iter().enumerate() {
            if node.l1.contains(unit) {
                assert!(
                    node.l2.state(unit).is_valid(),
                    "inclusion violated on node {i}: {unit} in L1 but not L2"
                );
            }
        }
    }

    /// Panics with the single-writer invariant `check_invariants` counted
    /// as broken, listing every node's state for `unit`.
    #[cold]
    #[inline(never)]
    fn single_writer_violated(
        &self,
        unit: UnitAddr,
        valid: usize,
        exclusive: usize,
        owners: usize,
    ) -> ! {
        let states: Vec<Moesi> = self.nodes.iter().map(|n| n.l2.state(unit)).collect();
        assert!(exclusive <= 1, "multiple M/E holders of {unit}: {states:?}");
        assert!(owners <= 1, "multiple O holders of {unit}: {states:?}");
        assert_eq!(valid, 1, "M/E copy of {unit} coexists with other copies: {states:?}");
        unreachable!("no single-writer violation for {unit}: {states:?}")
    }

    /// Verifies L1 ⊆ L2 inclusion exhaustively (tests; O(L1 size)) with
    /// the same per-unit check `check_invariants` runs for each touched
    /// unit.
    pub fn verify_inclusion(&self) {
        for (i, node) in self.nodes.iter().enumerate() {
            for unit in node.l1.valid_units() {
                assert!(
                    node.l2.state(unit).is_valid(),
                    "inclusion violated on node {i}: {unit} in L1 but not L2"
                );
            }
        }
    }

    /// Verifies that no filter in any bank filters a unit its L2 holds
    /// (tests; O(L2 size)) — probing the live bank, so shared IJ states
    /// are checked where every sharer reads them.
    pub fn verify_filter_consistency(&mut self) {
        for node in &mut self.nodes {
            let units: Vec<UnitAddr> = node.l2.valid_units().map(|(u, _)| u).collect();
            for &u in &units {
                for (k, verdict) in node.filters.probe(u).into_iter().enumerate() {
                    assert!(
                        !verdict.is_filtered(),
                        "{} filters cached unit {u}",
                        node.filters.name(k)
                    );
                }
            }
        }
    }
}
