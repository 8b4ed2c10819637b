//! The CPU-side access path: L1 probe → local L2 → writeback forwarding →
//! bus request, plus L1/L2 fills, installs and store completion.
//!
//! Protocol-dependent decisions (which state a fill installs, whether a
//! forwarded writeback needs an upgrade, what counts as dirty on eviction)
//! are delegated to the system's [`CoherenceProtocol`]; the flow itself is
//! protocol-agnostic.
//!
//! [`CoherenceProtocol`]: crate::protocol::CoherenceProtocol

use jetty_core::{FilterEvent, UnitAddr};

use crate::bus::BusKind;
use crate::l1::L1Lookup;
use crate::moesi::Moesi;
use crate::protocol::CoherenceProtocol;
use crate::system::{AccessOutcome, System};
use crate::wb::WbEntry;

impl System {
    pub(super) fn read(&mut self, cpu: usize, unit: UnitAddr) -> AccessOutcome {
        self.nodes[cpu].stats.l1_accesses += 1;
        if self.nodes[cpu].l1.lookup(unit).is_hit() {
            self.nodes[cpu].stats.l1_hits += 1;
            self.check_read(cpu, unit);
            return AccessOutcome { l1_hit: true, l2_hit: false, bus: None };
        }

        // L1 miss: probe the local L2.
        let node = &mut self.nodes[cpu];
        node.stats.l2_local_accesses += 1;
        node.stats.l2_tag_reads += 1;
        let state = node.l2.state(unit);
        let outcome = if state.is_valid() {
            node.stats.l2_local_hits += 1;
            node.stats.l2_data_reads += 1; // forward the unit to the L1
            self.fill_l1(cpu, unit, state.is_writable());
            AccessOutcome { l1_hit: false, l2_hit: true, bus: None }
        } else if let Some(entry) = self.nodes[cpu].l2_miss_wb_forward(unit) {
            // The missing unit is still in the node's own writeback buffer
            // (recently evicted dirty): forward it back without a bus
            // transaction. The protocol decides the re-entry state (MOESI:
            // a once-shared entry returns as Owned, a sole copy as
            // Modified; MESI/MSI entries are always sole dirty copies).
            let state = self.config.protocol.wb_forward_state(&entry);
            self.install(cpu, unit, state, entry.version);
            self.fill_l1(cpu, unit, state.is_writable());
            AccessOutcome { l1_hit: false, l2_hit: false, bus: None }
        } else {
            // L2 miss: bus read.
            let response = self.bus_transaction(cpu, unit, BusKind::Read);
            let install = self.config.protocol.read_fill_state(response.shared());
            let version = self.incoming_version(unit, &response);
            self.install(cpu, unit, install, version);
            self.fill_l1(cpu, unit, install.is_writable());
            self.nodes[cpu].stats.bus_reads += 1;
            AccessOutcome { l1_hit: false, l2_hit: false, bus: Some(BusKind::Read) }
        };
        self.check_read(cpu, unit);
        self.check_invariants(unit);
        outcome
    }

    pub(super) fn write(&mut self, cpu: usize, unit: UnitAddr) -> AccessOutcome {
        self.nodes[cpu].stats.l1_accesses += 1;
        let lookup = self.nodes[cpu].l1.lookup(unit);
        let outcome = match lookup {
            L1Lookup::HitWritable => {
                self.nodes[cpu].stats.l1_hits += 1;
                // First store to an Exclusive unit silently promotes the L2
                // to Modified (the permission bit lives in the L1, so only
                // the E->M state write touches the L2).
                self.promote_to_modified(cpu, unit);
                self.complete_store(cpu, unit);
                AccessOutcome { l1_hit: true, l2_hit: true, bus: None }
            }
            L1Lookup::HitShared => {
                // Write hit on a shared copy: upgrade on the bus
                // ("a snoop might be necessary even on an L2 hit").
                self.nodes[cpu].stats.l1_hits += 1;
                self.bus_transaction(cpu, unit, BusKind::Upgrade);
                self.promote_to_modified(cpu, unit);
                self.nodes[cpu].l1.grant_write(unit);
                self.complete_store(cpu, unit);
                self.nodes[cpu].stats.bus_upgrades += 1;
                AccessOutcome { l1_hit: true, l2_hit: true, bus: Some(BusKind::Upgrade) }
            }
            L1Lookup::Miss => self.write_l1_miss(cpu, unit),
        };
        self.check_invariants(unit);
        outcome
    }

    /// The L1-miss leg of a store: local L2 probe, writeback forwarding,
    /// or an invalidating bus transaction.
    fn write_l1_miss(&mut self, cpu: usize, unit: UnitAddr) -> AccessOutcome {
        let node = &mut self.nodes[cpu];
        node.stats.l2_local_accesses += 1;
        node.stats.l2_tag_reads += 1;
        let state = node.l2.state(unit);
        match state {
            Moesi::Modified | Moesi::Exclusive => {
                node.stats.l2_local_hits += 1;
                node.stats.l2_data_reads += 1;
                self.fill_l1(cpu, unit, true);
                self.promote_to_modified(cpu, unit);
                self.complete_store(cpu, unit);
                AccessOutcome { l1_hit: false, l2_hit: true, bus: None }
            }
            Moesi::Shared | Moesi::Owned => {
                node.stats.l2_local_hits += 1;
                node.stats.l2_data_reads += 1;
                self.bus_transaction(cpu, unit, BusKind::Upgrade);
                self.promote_to_modified(cpu, unit);
                self.fill_l1(cpu, unit, true);
                self.complete_store(cpu, unit);
                self.nodes[cpu].stats.bus_upgrades += 1;
                AccessOutcome { l1_hit: false, l2_hit: true, bus: Some(BusKind::Upgrade) }
            }
            Moesi::Invalid => {
                if let Some(entry) = self.nodes[cpu].l2_miss_wb_forward(unit) {
                    // Forward the pending writeback back into the cache.
                    // The protocol decides whether remote Shared copies may
                    // still exist (MOESI Owned-origin entries), requiring
                    // an invalidating upgrade before taking exclusivity.
                    if self.config.protocol.wb_forward_write_needs_upgrade(&entry) {
                        self.bus_transaction(cpu, unit, BusKind::Upgrade);
                        self.nodes[cpu].stats.bus_upgrades += 1;
                    }
                    self.install(cpu, unit, self.config.protocol.write_fill_state(), entry.version);
                    self.fill_l1(cpu, unit, true);
                    self.complete_store(cpu, unit);
                    AccessOutcome { l1_hit: false, l2_hit: false, bus: None }
                } else {
                    let response = self.bus_transaction(cpu, unit, BusKind::ReadExclusive);
                    let version = self.incoming_version(unit, &response);
                    self.install(cpu, unit, self.config.protocol.write_fill_state(), version);
                    self.fill_l1(cpu, unit, true);
                    self.complete_store(cpu, unit);
                    self.nodes[cpu].stats.bus_read_exclusives += 1;
                    AccessOutcome {
                        l1_hit: false,
                        l2_hit: false,
                        bus: Some(BusKind::ReadExclusive),
                    }
                }
            }
        }
    }

    /// Marks the L1 line dirty and stamps a fresh data version at the L2
    /// (the L2 carries the node's authoritative version; see module docs).
    fn complete_store(&mut self, cpu: usize, unit: UnitAddr) {
        let node = &mut self.nodes[cpu];
        node.l1.mark_dirty(unit);
        debug_assert!(node.l2.state(unit).is_valid(), "store to unit absent from L2");
        self.next_version += 1;
        let version = self.next_version;
        self.nodes[cpu].l2.set_version(unit, version);
        if self.config.check.is_full() {
            self.latest_versions.insert(unit.raw(), version);
        }
    }

    /// Transitions a valid local unit to Modified, charging a tag write
    /// when the state actually changes.
    fn promote_to_modified(&mut self, cpu: usize, unit: UnitAddr) {
        let node = &mut self.nodes[cpu];
        let state = node.l2.state(unit);
        assert!(state.is_valid(), "promote on absent unit {unit}");
        if state != Moesi::Modified {
            node.l2.set_state(unit, Moesi::Modified);
            node.stats.l2_tag_writes += 1;
        }
    }

    /// Fills the L1, handling the displaced victim's dirty writeback into
    /// the L2.
    fn fill_l1(&mut self, cpu: usize, unit: UnitAddr, writable: bool) {
        let node = &mut self.nodes[cpu];
        if let Some(victim) = node.l1.fill(unit, writable) {
            if victim.dirty {
                // By inclusion the victim's unit is still in the L2, in M
                // (stores eagerly promote). The writeback is a data write
                // plus the locate probe.
                node.stats.l1_writebacks += 1;
                node.stats.l2_local_accesses += 1;
                node.stats.l2_local_hits += 1;
                node.stats.l2_tag_reads += 1;
                node.stats.l2_data_writes += 1;
                debug_assert!(
                    node.l2.state(victim.unit).is_valid(),
                    "inclusion violated: dirty L1 victim {} absent from L2",
                    victim.unit
                );
            }
        }
    }

    /// Installs a freshly fetched unit into the local L2, evicting a
    /// conflicting block if needed, and notifies the filter bank.
    pub(super) fn install(&mut self, cpu: usize, unit: UnitAddr, state: Moesi, version: u64) {
        debug_assert!(self.config.protocol.allows(state), "install of foreign state {state}");
        // The system-owned scratch buffer is moved out for the duration of
        // the fill (so `self` stays borrowable below) and returned at the
        // end: steady-state installs perform zero heap allocation.
        let mut evicted = std::mem::take(&mut self.evict_scratch);
        {
            let node = &mut self.nodes[cpu];
            node.stats.l2_tag_writes += 1; // new tag/state
            node.stats.l2_data_writes += 1; // the arriving data
            node.l2.fill_into(unit, state, version, &mut evicted);
        }
        for ev in &evicted {
            let node = &mut self.nodes[cpu];
            node.stats.l2_evicted_units += 1;
            // Inclusion: drop the L1 copy (its data is not newer than the
            // L2's — stores stamp the L2 version eagerly).
            node.l1.invalidate(ev.unit);
            if self.config.protocol.dirty_on_evict(ev.state) {
                node.stats.l2_evict_data_reads += 1; // read out for the writeback
                node.stats.wb_pushes += 1;
                if let Some(forced) = node.wb.push(WbEntry {
                    unit: ev.unit,
                    version: ev.version,
                    shared: self.config.protocol.evicted_may_have_sharers(ev.state),
                }) {
                    node.stats.wb_drains += 1;
                    self.retire_to_memory(forced);
                }
            }
            self.nodes[cpu].log(FilterEvent::Deallocate(ev.unit));
        }
        self.nodes[cpu].log(FilterEvent::Allocate(unit));
        self.evict_scratch = evicted;
    }
}
