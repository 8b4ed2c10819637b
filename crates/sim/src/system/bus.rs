//! The bus side: atomic transaction execution and the snoop delivered to
//! every remote node.
//!
//! Each snoop follows the exact path JETTY is about: the writeback buffer
//! is always probed (never filtered), then the snoop is logged for the
//! filter bank (which observes it as a bystander at the next flush), then
//! the configured [`CoherenceProtocol`] reaction runs against the tag array.
//!
//! [`CoherenceProtocol`]: crate::protocol::CoherenceProtocol

use jetty_core::{FilterEvent, MissScope, UnitAddr};

use crate::bus::{BusKind, SnoopResponse};
use crate::protocol::CoherenceProtocol;
use crate::system::System;
use crate::wb::WbEntry;

impl System {
    /// Executes one bus transaction: drains a writeback slot, snoops every
    /// remote node, aggregates the response, updates the histogram.
    pub(super) fn bus_transaction(
        &mut self,
        requester: usize,
        unit: UnitAddr,
        kind: BusKind,
    ) -> SnoopResponse {
        // Bus acquired: the oldest pending writeback of the requester rides
        // along (simple drain policy; keeps WB occupancy bounded).
        if let Some(entry) = self.nodes[requester].wb.drain_one() {
            self.nodes[requester].stats.wb_drains += 1;
            self.retire_to_memory(entry);
        }

        let mut response = SnoopResponse::default();
        for i in 0..self.config.cpus {
            if i == requester {
                continue;
            }
            self.snoop(i, unit, kind, &mut response);
        }

        let hist_slot = response.remote_copies.min(self.config.cpus - 1);
        self.stats.remote_hit_hist[hist_slot] += 1;
        match kind {
            BusKind::Read => self.stats.bus_reads += 1,
            BusKind::ReadExclusive => self.stats.bus_read_exclusives += 1,
            BusKind::Upgrade => self.stats.bus_upgrades += 1,
        }
        if kind.needs_data() {
            if response.cache_supplied() {
                self.stats.cache_supplies += 1;
            } else {
                self.stats.memory_supplies += 1;
            }
        }
        response
    }

    /// Delivers one snoop to node `i`.
    fn snoop(&mut self, i: usize, unit: UnitAddr, kind: BusKind, response: &mut SnoopResponse) {
        let (state, block_present) = self.nodes[i].l2.snoop_probe(unit);
        let would_hit = state.is_valid();
        // On a miss, distinguish a whole-tag miss (the entire block absent:
        // exclude filters may record it) from a partial one.
        let scope = if block_present { MissScope::Unit } else { MissScope::Block };
        // A writeback retired to memory as part of this snoop (borrow of
        // the node ends before memory is updated).
        let mut retired: Option<WbEntry> = None;

        {
            let node = &mut self.nodes[i];
            node.stats.snoops_seen += 1;

            // 1. The writeback buffer is always probed (never filtered).
            node.stats.wb_probes += 1;
            if node.wb.probe(unit).is_some() {
                debug_assert!(!would_hit, "unit in both WB and L2 of node {i}");
                node.stats.wb_snoop_hits += 1;
                match kind {
                    BusKind::Read => {
                        // Supply from the buffer AND complete the pending
                        // memory write in the same transaction. Leaving the
                        // entry queued would let a stale drain overwrite a
                        // newer writeback after the requester (installed
                        // Exclusive) modifies the data.
                        node.stats.snoop_supplies += 1;
                        node.stats.wb_drains += 1;
                        let taken = node.wb.remove(unit).expect("probe just found it");
                        response.supplied_version = Some(taken.version);
                        response.supplied_by_wb = true;
                        retired = Some(taken);
                    }
                    BusKind::ReadExclusive => {
                        // The requester takes ownership; the pending
                        // writeback is superseded and dropped.
                        node.stats.snoop_supplies += 1;
                        let taken = node.wb.remove(unit).expect("probe just found it");
                        response.supplied_version = Some(taken.version);
                        response.supplied_by_wb = true;
                    }
                    BusKind::Upgrade => {
                        // The upgrader's Shared copy matches the buffered
                        // data; the buffered write is superseded.
                        node.wb.remove(unit);
                    }
                }
            }

            // 2. The filter bank observes the snoop. Filters are pure
            // bystanders, so the bank walk is deferred to the flush: one
            // logged event here, replayed through the bank step later.
            node.log(FilterEvent::Snoop { unit, would_hit, scope });
        }
        if let Some(entry) = retired {
            self.retire_to_memory(entry);
        }

        // 3. The protocol reaction (what an unfiltered L2 does).
        if !would_hit {
            self.nodes[i].stats.snoop_would_miss += 1;
            return;
        }
        self.nodes[i].stats.snoop_hits += 1;
        response.remote_copies += 1;

        match kind {
            BusKind::Read => {
                let reaction = self.config.protocol.remote_read_reaction(state);
                // A dirty L1 copy folds into the L2 before any supply
                // (version already current — stores stamp eagerly).
                if self.nodes[i].l1.downgrade(unit) {
                    self.nodes[i].stats.l2_data_writes += 1;
                }
                // Version pushed to memory alongside the supply (MESI/MSI
                // M -> S downgrades; node borrow ends first).
                let mut memory_update = None;
                if reaction.supplies {
                    let node = &mut self.nodes[i];
                    node.stats.snoop_supplies += 1;
                    let version = node.l2.version(unit);
                    response.supplied_version = Some(version);
                    if reaction.memory_update {
                        node.stats.snoop_memory_writebacks += 1;
                        memory_update = Some(version);
                    }
                }
                if reaction.next != state {
                    let node = &mut self.nodes[i];
                    node.l2.set_state(unit, reaction.next);
                    node.stats.snoop_state_writes += 1;
                }
                if let Some(version) = memory_update {
                    self.update_memory(unit, version);
                }
            }
            BusKind::ReadExclusive | BusKind::Upgrade => {
                let node = &mut self.nodes[i];
                node.l1.invalidate(unit);
                let (prior, version) = node.l2.invalidate(unit);
                node.stats.snoop_state_writes += 1;
                node.stats.snoop_invalidations += 1;
                if kind == BusKind::ReadExclusive && prior.supplies_data() {
                    node.stats.snoop_supplies += 1;
                    response.supplied_version = Some(version);
                }
                node.log(FilterEvent::Deallocate(unit));
            }
        }
    }
}
