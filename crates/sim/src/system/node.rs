//! One SMP node: the per-processor state bundle and its purely local
//! helpers. Everything that needs cross-node or bus context lives in
//! [`local`](super::local) and [`bus`](super::bus) instead.

use jetty_core::{FilterBank, FilterEvent, UnitAddr};

use crate::l1::L1Cache;
use crate::l2::L2Cache;
use crate::stats::NodeStats;
use crate::wb::{WbEntry, WritebackBuffer};

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
    /// public `System` entry point drains them unless a gate stops it.
    /// The capacity is retained, so steady-state logging allocates nothing.
    pub(super) events: Vec<FilterEvent>,
}

impl Node {
    /// Logs a filter notification for the next flush. A node whose bank is
    /// empty (fixed at construction) has no one to notify and logs nothing.
    #[inline]
    pub(super) fn log(&mut self, event: FilterEvent) {
        if !self.filters.is_empty() {
            self.events.push(event);
        }
    }

    /// Replays the logged events through the bank and clears the log;
    /// `index` (this node's) labels the filter-safety panic.
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
