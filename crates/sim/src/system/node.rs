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
    /// Filter notifications deferred during a batched chunk
    /// ([`System::run_chunk`](super::System::run_chunk)): the protocol path
    /// logs one compact event per notification here instead of walking the
    /// whole bank per snoop, and the chunk flush replays the list through
    /// each filter in turn. Empty outside batched runs, and drained before
    /// `run_chunk` returns. The buffer's capacity is retained across
    /// chunks, so steady-state logging allocates nothing.
    pub(super) events: Vec<FilterEvent>,
}

impl Node {
    /// On a local L2 miss, checks the node's own writeback buffer for the
    /// unit (evicted dirty, not yet at memory) and extracts it if present.
    pub(super) fn l2_miss_wb_forward(&mut self, unit: UnitAddr) -> Option<WbEntry> {
        let entry = self.wb.remove(unit)?;
        self.stats.wb_local_hits += 1;
        Some(entry)
    }
}
