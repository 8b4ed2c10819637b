//! One SMP node: the per-processor state bundle and its purely local
//! helpers. Everything that needs cross-node or bus context lives in
//! [`local`](super::local) and [`bus`](super::bus) instead.

use jetty_core::{FilterBank, FilterEvent, UnitAddr};

use crate::l1::L1Cache;
use crate::l2::L2Cache;
use crate::stats::NodeStats;
use crate::wb::{WbEntry, WritebackBuffer};

use super::System;

/// One SMP node.
///
/// The filter bank is a [`FilterBank`]: concrete filter values with
/// statically dispatched probes, because every bus snoop walks the whole
/// bank, and one live IJ state per distinct IJ geometry.
pub(super) struct Node {
    pub(super) l1: L1Cache,
    pub(super) l2: L2Cache,
    pub(super) wb: WritebackBuffer,
    pub(super) filters: FilterBank,
    pub(super) stats: NodeStats,
    /// Filter notifications not yet replayed ([`Node::flush`]); every
    /// public `System` entry point drains them, and a log that reaches
    /// [`System::LOG_LEN`] drains itself. It grows lazily and keeps its
    /// capacity, so steady-state logging allocates nothing.
    pub(super) events: Vec<FilterEvent>,
}

impl Node {
    /// Logs a filter notification for the next flush. A node whose bank is
    /// empty (fixed at construction) has no one to notify and logs nothing.
    /// A log that reaches [`System::LOG_LEN`] events is replayed through
    /// the bank at once: the bank still sees its own events in order, so
    /// nothing it reports changes. `index` (this node's, held by every
    /// caller, so `Node` carries no copy) labels the filter-safety panic.
    #[inline]
    pub(super) fn log(&mut self, event: FilterEvent, index: usize) {
        if !self.filters.is_empty() {
            self.events.push(event);
            if self.events.len() == System::LOG_LEN {
                self.flush(index);
            }
        }
    }

    /// Replays the logged events through the bank and clears the log;
    /// `index` (this node's) labels the filter-safety panic. Kept out of
    /// line: [`Node::log`] is inlined into every logging site of the
    /// substrate pass, and calls this once per [`System::LOG_LEN`] events.
    #[inline(never)]
    pub(super) fn flush(&mut self, index: usize) {
        if !self.events.is_empty() {
            self.filters.apply_batch(&self.events, index);
            self.events.clear();
        }
    }

    /// On a local L2 miss, checks the node's own writeback buffer for the
    /// unit (evicted dirty, not yet at memory) and extracts it if present.
    pub(super) fn l2_miss_wb_forward(&mut self, unit: UnitAddr) -> Option<WbEntry> {
        let entry = self.wb.remove(unit)?;
        self.stats.wb_local_hits += 1;
        Some(entry)
    }
}
