//! The SMP system: N nodes (CPU + L1 + L2 + writeback buffer + filter
//! bank) on an atomic snoopy bus in front of main memory.
//!
//! # Layering
//!
//! The system is decomposed by path, one submodule each:
//!
//! * [`node`] — one SMP node (caches, writeback buffer, filter bank) and
//!   its purely local helpers;
//! * [`local`] — the CPU-side access path: L1 probe → local L2 → writeback
//!   forwarding → bus request, plus fills, installs and store completion;
//! * [`bus`] — the bus side: transaction execution and the snoop delivered
//!   to every remote node (writeback-buffer probe → filter bank → protocol
//!   reaction);
//! * [`check`] — the always-on filter-safety assertion's companions: the
//!   version-exact data-coherence checker and the protocol invariant pass.
//!
//! Every protocol-dependent decision on those paths is delegated to a
//! [`CoherenceProtocol`] (chosen via [`SystemConfig::protocol`]): fill
//! states, snoop reactions, upgrade requirements and eviction/writeback
//! semantics. The default MOESI protocol reproduces the paper's platform
//! bit for bit; MESI and MSI open the protocol axis (see
//! [`crate::protocol`]).
//!
//! # Protocol walk-through
//!
//! A CPU access first probes its L1. On an L1 miss the local L2 is probed;
//! on an L2 miss (or a write to a non-writable copy) a bus transaction is
//! issued and *every other node snoops it*: the writeback buffer is always
//! probed, the attached JETTY filters are probed, and — unless a filter
//! would have answered — the L2 tag array reacts per the configured
//! protocol.
//!
//! # Filter banks
//!
//! Because a JETTY never changes protocol behaviour (it only skips
//! would-miss tag probes), any number of filter configurations can observe
//! the same run as pure bystanders. Each node therefore carries a *bank* of
//! filters built from the same [`FilterSpec`] list; one simulation yields
//! coverage and energy-activity numbers for every configuration at once,
//! over an identical reference stream — mirroring the paper's methodology
//! of evaluating all organisations on the same traces.
//!
//! # Safety checking
//!
//! The filter-safety assertion (a filtered snoop must be a genuine miss) is
//! always on, checked as the bank replays each logged snoop: it is one
//! comparison and it guards the paper's core requirement. With
//! [`CheckLevel::Full`] the system additionally verifies
//! the protocol's single-writer invariants after every transaction and
//! tracks data versions end to end (stores stamp a fresh version; loads
//! must observe the newest one; fills, supplies, writebacks and drains
//! carry versions along), catching lost-update and stale-read protocol
//! bugs.
//!
//! [`CheckLevel::Full`]: crate::CheckLevel::Full
//! [`CoherenceProtocol`]: crate::protocol::CoherenceProtocol

mod bus;
mod check;
mod local;
mod node;

use jetty_core::{FilterBank, FilterSpec};

use crate::bus::BusKind;
use crate::config::SystemConfig;
use crate::fastmap::FastMap;
use crate::l1::L1Cache;
use crate::l2::{EvictedUnit, L2Cache};
use crate::moesi::Moesi;
use crate::stats::{NodeStats, RunStats, SystemStats};
use crate::trace::{MemRef, Op};
use crate::wb::WritebackBuffer;

use node::Node;

/// What happened on one CPU access (returned for tests and diagnostics).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessOutcome {
    /// The access hit in the L1.
    pub l1_hit: bool,
    /// The access hit in the local L2 (meaningful when `l1_hit` is false,
    /// and also true for upgrade-only writes).
    pub l2_hit: bool,
    /// The bus transaction issued, if any.
    pub bus: Option<BusKind>,
}

/// Coverage and activity for one filter configuration over a finished run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FilterReport {
    /// The configuration.
    pub spec: FilterSpec,
    /// Configuration label (paper naming).
    pub label: String,
    /// Snoop probes observed (summed over nodes).
    pub probes: u64,
    /// Snoops filtered (answered `NotCached`).
    pub filtered: u64,
    /// Snoops that would have missed in the L2 (the coverable population;
    /// identical for every filter in the bank).
    pub would_miss: u64,
    /// Per-node activity, for energy accounting.
    pub activities: Vec<jetty_core::FilterActivity>,
    /// Array geometry (identical across nodes).
    pub arrays: Vec<jetty_core::ArraySpec>,
    /// Total filter storage in bits.
    pub storage_bits: usize,
}

impl FilterReport {
    /// Snoop-miss coverage: the fraction of would-miss snoops this filter
    /// eliminated (the paper's key metric, §4.3).
    pub fn coverage(&self) -> f64 {
        if self.would_miss == 0 {
            0.0
        } else {
            self.filtered as f64 / self.would_miss as f64
        }
    }

    /// Fraction of *all* snoop probes this filter answered `NotCached`
    /// (coverage is normalised to would-miss snoops; this is normalised to
    /// everything that reached the filter). 0 when no snoops arrived.
    pub fn filter_rate(&self) -> f64 {
        if self.probes == 0 {
            0.0
        } else {
            self.filtered as f64 / self.probes as f64
        }
    }

    /// Filter storage rounded up to whole bytes, derived from
    /// [`FilterReport::storage_bits`] — the sweep grid's `bytes` column,
    /// giving every filter-axis row its storage cost alongside coverage.
    pub fn storage_bytes(&self) -> usize {
        self.storage_bits.div_ceil(8)
    }
}

/// The simulated SMP.
///
/// A `System` owns all of its state (caches, writeback buffers, filter
/// banks, checker maps) and is `Send`: the parallel experiment engine moves
/// whole systems onto worker threads and runs independent simulations
/// concurrently. Nothing is shared between systems (the protocol object is
/// a zero-sized shared static), so no `Sync` is needed.
pub struct System {
    config: SystemConfig,
    specs: Vec<FilterSpec>,
    nodes: Vec<Node>,
    stats: SystemStats,
    /// Monotonic data-version source (checker).
    next_version: u64,
    /// Memory's current version per unit (checker; absent = 0). Probed on
    /// every bus fill, hence a [`FastMap`] rather than a SipHash map.
    memory_versions: FastMap,
    /// Latest version ever written per unit (checker; absent = 0).
    latest_versions: FastMap,
    /// Reusable eviction scratch threaded through every L2 fill so the
    /// steady-state install path allocates nothing.
    evict_scratch: Vec<EvictedUnit>,
}

// Compile-time audit that a whole simulated system can move across
// threads (filters carry the `Send` supertrait; the protocol is a shared
// `Sync` static; everything else is owned plain data). Breaking this
// breaks the parallel experiment engine.
const _: fn() = assert_send::<System>;
fn assert_send<T: Send>() {}

impl System {
    /// Builds a system with one filter per spec per node.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see
    /// [`SystemConfig::validate`]).
    pub fn new(config: SystemConfig, specs: &[FilterSpec]) -> Self {
        config.validate();
        let nodes = (0..config.cpus)
            .map(|_| Node {
                l1: L1Cache::new(config.l1),
                // Only the checker reads data versions.
                l2: if config.check.is_full() {
                    L2Cache::new(config.l2)
                } else {
                    L2Cache::without_versions(config.l2)
                },
                wb: WritebackBuffer::new(config.wb_entries),
                filters: FilterBank::new(specs, config.addr),
                stats: NodeStats::default(),
                events: Vec::new(),
            })
            .collect();
        Self {
            config,
            specs: specs.to_vec(),
            nodes,
            stats: SystemStats::new(config.cpus),
            next_version: 0,
            memory_versions: FastMap::new(),
            latest_versions: FastMap::new(),
            evict_scratch: Vec::new(),
        }
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Number of processors.
    pub fn cpus(&self) -> usize {
        self.config.cpus
    }

    /// Applies one trace reference.
    pub fn apply(&mut self, mem_ref: MemRef) -> AccessOutcome {
        self.access(mem_ref.cpu, mem_ref.op, mem_ref.addr)
    }

    /// References per internal chunk of [`System::run`] (and the chunk
    /// size streamed `run_app` callers should use).
    ///
    /// It sets the caller's trace buffer and how often a run meets its
    /// gate and deadline checks, but no longer the filter-event logs:
    /// those are bounded by [`System::LOG_LEN`] whatever the chunk length.
    /// Smaller chunks were no slower down to 4Ki (2-vCPU x86_64 VM,
    /// scale 0.1; docs/ARCHITECTURE.md §2a.2).
    pub const CHUNK_LEN: usize = 4096;

    /// Most filter events a node's log holds. A log that reaches it is
    /// replayed through the node's bank at once, mid-chunk; each bank
    /// still sees its own events in order, so every report is unchanged.
    /// At 8 bytes per [`jetty_core::FilterEvent`] a log never grows past
    /// 4 KiB. Logs that kept their busiest chunk's capacity held 64 KiB
    /// per node at 4Ki chunks and 16-byte events; bounding and packing
    /// them took protocol-grid's peak RSS from about 5.0 to 4.4 MiB. A
    /// bound of 256 saved only 0.05 MiB more, and 2048 gave back 0.25 MiB
    /// (docs/ARCHITECTURE.md §2a.1).
    pub const LOG_LEN: usize = 512;

    /// Runs an entire trace through the system by buffering it into
    /// [`System::CHUNK_LEN`]-reference chunks and delegating to
    /// [`System::run_chunk`], so iterator-driven callers get the batched
    /// snoop fan-out for free.
    pub fn run<I: IntoIterator<Item = MemRef>>(&mut self, trace: I) {
        let mut buf = Vec::with_capacity(Self::CHUNK_LEN);
        for r in trace {
            buf.push(r);
            if buf.len() == Self::CHUNK_LEN {
                self.run_chunk(&buf);
                buf.clear();
            }
        }
        if !buf.is_empty() {
            self.run_chunk(&buf);
        }
    }

    /// Runs one pregenerated chunk of references.
    ///
    /// The protocol path (L1/L2/writeback/bus reactions) is inherently
    /// sequential, but filters are pure bystanders whose state depends
    /// only on the ordered event stream each one receives — so during the
    /// chunk the snoop path logs compact per-node
    /// [`jetty_core::FilterEvent`]s, and a flush replays each node's list
    /// through its bank ([`FilterBank::apply_batch`]): a node's own flush
    /// when its log reaches [`System::LOG_LEN`], and every node's at the
    /// end of the chunk. Deferring keeps each bank's arrays out of the
    /// protocol pass's working set and hot across a run of its events.
    ///
    /// This is the one replay path, at every check level: no substrate
    /// decision or [`CheckLevel::Full`] checker reads filter state, so
    /// the checkers still see every intermediate state, and the
    /// filter-safety panic fires at a flush, naming the node's earliest
    /// offending event's unit and member. Across nodes it names the first
    /// node to flush an offending event. An empty bank logs nothing. All
    /// events are flushed before this returns, so callers may inspect
    /// filter state between chunks.
    ///
    /// [`CheckLevel::Full`]: crate::CheckLevel::Full
    pub fn run_chunk(&mut self, chunk: &[MemRef]) {
        for &r in chunk {
            self.step(r.cpu, r.op, r.addr);
        }
        self.flush_filter_events();
    }

    /// Performs one CPU access and flushes its filter events, so the
    /// caller observes filter state at once.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range, or on any internal protocol
    /// violation (these are bugs, not recoverable conditions).
    pub fn access(&mut self, cpu: usize, op: Op, addr: u64) -> AccessOutcome {
        let outcome = self.step(cpu, op, addr);
        self.flush_filter_events();
        outcome
    }

    /// Replays every node's logged filter events through its bank, in
    /// node order.
    fn flush_filter_events(&mut self) {
        for (i, node) in self.nodes.iter_mut().enumerate() {
            node.flush(i);
        }
    }

    /// One CPU access with its filter events left logged for the flush.
    fn step(&mut self, cpu: usize, op: Op, addr: u64) -> AccessOutcome {
        assert!(cpu < self.config.cpus, "cpu {cpu} out of range");
        let unit = self.config.addr.unit_of(addr);
        match op {
            Op::Read => self.read(cpu, unit),
            Op::Write => self.write(cpu, unit),
        }
    }

    // ------------------------------------------------------------------
    // Results
    // ------------------------------------------------------------------

    /// Per-node statistics.
    pub fn node_stats(&self, cpu: usize) -> &NodeStats {
        &self.nodes[cpu].stats
    }

    /// Aggregated run statistics.
    pub fn run_stats(&self) -> RunStats {
        let mut nodes = NodeStats::default();
        for node in &self.nodes {
            nodes.merge(&node.stats);
        }
        RunStats { nodes, system: self.stats.clone() }
    }

    /// Bus-level statistics.
    pub fn system_stats(&self) -> &SystemStats {
        &self.stats
    }

    /// Coverage/activity report for every filter in the bank.
    pub fn filter_reports(&self) -> Vec<FilterReport> {
        let would_miss: u64 = self.nodes.iter().map(|n| n.stats.snoop_would_miss).sum();
        self.specs
            .iter()
            .enumerate()
            .map(|(k, spec)| {
                let activities: Vec<_> = self.nodes.iter().map(|n| n.filters.activity(k)).collect();
                let probes = activities.iter().map(|a| a.probes).sum();
                let filtered = activities.iter().map(|a| a.filtered).sum();
                let arrays = self.nodes[0].filters.arrays(k);
                let storage_bits = self.nodes[0].filters.storage_bits(k);
                FilterReport {
                    spec: *spec,
                    label: spec.label(),
                    probes,
                    filtered,
                    would_miss,
                    activities,
                    arrays,
                    storage_bits,
                }
            })
            .collect()
    }

    /// Direct L2 state inspection (tests).
    pub fn l2_state(&self, cpu: usize, addr: u64) -> Moesi {
        self.nodes[cpu].l2.state(self.config.addr.unit_of(addr))
    }

    /// Direct L1 presence inspection (tests).
    pub fn l1_contains(&self, cpu: usize, addr: u64) -> bool {
        self.nodes[cpu].l1.contains(self.config.addr.unit_of(addr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{L1Config, L2Config};
    use crate::protocol::ProtocolKind;
    use jetty_core::AddrSpace;

    /// A tiny checked system so evictions happen quickly.
    fn tiny_with(protocol: ProtocolKind, specs: &[FilterSpec]) -> System {
        let config = SystemConfig {
            cpus: 4,
            l1: L1Config::new(256, 32),     // 8 lines
            l2: L2Config::new(1024, 64, 2), // 16 blocks, 32 units
            wb_entries: 4,
            addr: AddrSpace::default(),
            check: crate::config::CheckLevel::Full,
            protocol,
        };
        System::new(config, specs)
    }

    fn tiny(specs: &[FilterSpec]) -> System {
        tiny_with(ProtocolKind::Moesi, specs)
    }

    fn paper(specs: &[FilterSpec]) -> System {
        System::new(SystemConfig::paper_4way(), specs)
    }

    fn with_protocol(protocol: ProtocolKind) -> System {
        System::new(SystemConfig::paper_4way().with_protocol(protocol), &[])
    }

    #[test]
    fn cold_read_misses_everywhere_and_installs_exclusive() {
        let mut sys = paper(&[]);
        let out = sys.access(0, Op::Read, 0x1000);
        assert!(!out.l1_hit && !out.l2_hit);
        assert_eq!(out.bus, Some(BusKind::Read));
        assert_eq!(sys.l2_state(0, 0x1000), Moesi::Exclusive);
        assert!(sys.l1_contains(0, 0x1000));
        // Remote hit histogram: zero copies found.
        assert_eq!(sys.system_stats().remote_hit_hist[0], 1);
    }

    #[test]
    fn second_read_hits_l1() {
        let mut sys = paper(&[]);
        sys.access(0, Op::Read, 0x1000);
        let out = sys.access(0, Op::Read, 0x1008); // same 32B unit
        assert!(out.l1_hit);
        assert_eq!(sys.node_stats(0).l1_hits, 1);
    }

    #[test]
    fn sharing_downgrades_exclusive_to_shared() {
        let mut sys = paper(&[]);
        sys.access(0, Op::Read, 0x40);
        sys.access(1, Op::Read, 0x40);
        assert_eq!(sys.l2_state(0, 0x40), Moesi::Shared);
        assert_eq!(sys.l2_state(1, 0x40), Moesi::Shared);
        // The second read found one remote copy.
        assert_eq!(sys.system_stats().remote_hit_hist[1], 1);
    }

    #[test]
    fn producer_consumer_uses_owned_state() {
        let mut sys = paper(&[]);
        sys.access(0, Op::Write, 0x80); // producer: BusRdX -> M
        assert_eq!(sys.l2_state(0, 0x80), Moesi::Modified);
        sys.access(1, Op::Read, 0x80); // consumer: producer supplies, M -> O
        assert_eq!(sys.l2_state(0, 0x80), Moesi::Owned);
        assert_eq!(sys.l2_state(1, 0x80), Moesi::Shared);
        assert_eq!(sys.node_stats(0).snoop_supplies, 1);
        // MOESI keeps the dirty data on-chip: no memory update.
        assert_eq!(sys.node_stats(0).snoop_memory_writebacks, 0);
    }

    #[test]
    fn write_hit_on_shared_issues_upgrade() {
        let mut sys = paper(&[]);
        sys.access(0, Op::Read, 0xc0);
        sys.access(1, Op::Read, 0xc0); // both Shared
        let out = sys.access(0, Op::Write, 0xc0);
        assert_eq!(out.bus, Some(BusKind::Upgrade));
        assert_eq!(sys.l2_state(0, 0xc0), Moesi::Modified);
        assert_eq!(sys.l2_state(1, 0xc0), Moesi::Invalid);
        assert_eq!(sys.node_stats(1).snoop_invalidations, 1);
        assert!(!sys.l1_contains(1, 0xc0));
    }

    #[test]
    fn write_miss_invalidates_remote_modified() {
        let mut sys = paper(&[]);
        sys.access(0, Op::Write, 0x100); // M at node 0
        sys.access(1, Op::Write, 0x100); // BusRdX: node 0 supplies + invalidates
        assert_eq!(sys.l2_state(0, 0x100), Moesi::Invalid);
        assert_eq!(sys.l2_state(1, 0x100), Moesi::Modified);
        assert_eq!(sys.node_stats(0).snoop_supplies, 1);
    }

    #[test]
    fn silent_exclusive_to_modified_upgrade() {
        let mut sys = paper(&[]);
        sys.access(0, Op::Read, 0x140); // E
        let out = sys.access(0, Op::Write, 0x140); // silent E->M
        assert_eq!(out.bus, None);
        assert_eq!(sys.l2_state(0, 0x140), Moesi::Modified);
    }

    #[test]
    fn migratory_sharing_roundtrip_stays_coherent() {
        let mut sys = paper(&[]);
        for round in 0..6 {
            let cpu = round % 4;
            sys.access(cpu, Op::Read, 0x2000);
            sys.access(cpu, Op::Write, 0x2000);
        }
        // Exactly one M copy at the last writer.
        assert_eq!(sys.l2_state(1, 0x2000), Moesi::Modified);
        for cpu in [0, 2, 3] {
            assert_eq!(sys.l2_state(cpu, 0x2000), Moesi::Invalid);
        }
    }

    #[test]
    fn eviction_pushes_dirty_data_through_wb_to_memory() {
        let mut sys = tiny(&[]);
        // Dirty a unit, then evict it with a conflicting block
        // (same L2 index: 1 KiB apart in the tiny L2).
        sys.access(0, Op::Write, 0x0);
        sys.access(0, Op::Read, 0x400);
        assert_eq!(sys.l2_state(0, 0x0), Moesi::Invalid);
        assert_eq!(sys.node_stats(0).wb_pushes, 1);
        // Another node reads it back: memory (via WB drain) or the WB
        // itself must supply the *written* version — the checker asserts.
        sys.access(1, Op::Read, 0x0);
        sys.access(1, Op::Read, 0x8); // same unit, L1 hit
    }

    #[test]
    fn wb_supplies_pending_data_on_remote_read() {
        let mut sys = tiny(&[]);
        sys.access(0, Op::Write, 0x0);
        sys.access(0, Op::Read, 0x400); // evict dirty unit into WB
                                        // Immediately read from another node: WB must supply.
        sys.access(1, Op::Read, 0x0);
        assert!(sys.node_stats(0).wb_snoop_hits >= 1);
    }

    #[test]
    fn upgrade_supersedes_pending_writeback() {
        let mut sys = tiny(&[]);
        // Node 0 and 1 share; node 0 then owns dirty (O) after node 1 reads.
        sys.access(0, Op::Write, 0x0); // M at 0
        sys.access(1, Op::Read, 0x0); // 0:O, 1:S
                                      // Evict node 0's O copy into its WB.
        sys.access(0, Op::Read, 0x400);
        assert_eq!(sys.l2_state(0, 0x0), Moesi::Invalid);
        // Node 1 upgrades its S copy: the pending WB entry is superseded.
        sys.access(1, Op::Write, 0x0);
        assert_eq!(sys.l2_state(1, 0x0), Moesi::Modified);
        // Node 1's new data must win: read it from node 2.
        sys.access(2, Op::Read, 0x0);
    }

    #[test]
    fn filters_observe_without_changing_behaviour() {
        let specs = [FilterSpec::hybrid_scalar(8, 4, 7, 16, 2), FilterSpec::Null];
        let mut with = paper(&specs);
        let mut without = paper(&[]);
        let trace: Vec<MemRef> = (0..200)
            .map(|i| {
                let cpu = (i * 7) % 4;
                let addr = ((i * 37) % 50) * 32;
                if i % 3 == 0 {
                    MemRef::write(cpu, addr as u64)
                } else {
                    MemRef::read(cpu, addr as u64)
                }
            })
            .collect();
        with.run(trace.iter().copied());
        without.run(trace.iter().copied());
        assert_eq!(with.run_stats().nodes, without.run_stats().nodes);
        assert_eq!(with.run_stats().system, without.run_stats().system);
    }

    #[test]
    fn filter_reports_share_the_would_miss_denominator() {
        let specs = [FilterSpec::exclude(8, 2), FilterSpec::include(6, 5, 6)];
        let mut sys = paper(&specs);
        for i in 0..100u64 {
            sys.access((i % 4) as usize, Op::Read, i * 64);
        }
        let reports = sys.filter_reports();
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].would_miss, reports[1].would_miss);
        for r in &reports {
            assert!(r.coverage() >= 0.0 && r.coverage() <= 1.0);
            assert!(r.filtered <= r.would_miss);
        }
    }

    #[test]
    fn include_jetty_filters_most_cold_snoops() {
        let specs = [FilterSpec::include(10, 4, 7)];
        let mut sys = paper(&specs);
        // Four CPUs touch disjoint regions: every snoop misses remotely.
        for i in 0..400u64 {
            let cpu = (i % 4) as usize;
            sys.access(cpu, Op::Read, 0x10_0000 * cpu as u64 + (i / 4) * 32);
        }
        let report = &sys.filter_reports()[0];
        assert!(report.would_miss > 0);
        // Disjoint working sets are the IJ's best case.
        assert!(report.coverage() > 0.9, "IJ coverage unexpectedly low: {}", report.coverage());
    }

    #[test]
    fn null_filter_never_filters() {
        let mut sys = paper(&[FilterSpec::Null]);
        for i in 0..100u64 {
            sys.access((i % 4) as usize, Op::Read, i * 32);
        }
        let report = &sys.filter_reports()[0];
        assert_eq!(report.filtered, 0);
        assert_eq!(report.coverage(), 0.0);
    }

    #[test]
    fn snoop_counts_match_transactions() {
        let mut sys = paper(&[]);
        for i in 0..50u64 {
            sys.access((i % 4) as usize, Op::Write, i * 64);
        }
        let run = sys.run_stats();
        let tx = run.system.transactions();
        // Every transaction snoops cpus-1 nodes.
        assert_eq!(run.nodes.snoops_seen, tx * 3);
        assert_eq!(run.nodes.wb_probes, run.nodes.snoops_seen);
    }

    #[test]
    fn inclusion_holds_under_pressure() {
        let mut sys = tiny(&[FilterSpec::include(6, 5, 6)]);
        for i in 0..3000u64 {
            let cpu = (i % 4) as usize;
            let addr = (i * 97) % 8192;
            if i % 4 == 0 {
                sys.access(cpu, Op::Write, addr & !31);
            } else {
                sys.access(cpu, Op::Read, addr & !31);
            }
        }
        sys.verify_inclusion();
        sys.verify_filter_consistency();
    }

    #[test]
    fn no_log_ever_holds_more_than_log_len_events() {
        // Migratory writes: each unit is stored to by every CPU in turn,
        // so every store snoops the other three nodes, and each node logs
        // several times LOG_LEN events in one chunk.
        let mut sys = paper(&FilterSpec::paper_bank());
        let refs: Vec<MemRef> = (0..System::CHUNK_LEN as u64)
            .map(|i| MemRef::write((i % 4) as usize, (i / 4 % 64) * 32))
            .collect();
        let mut most = 0;
        for &r in &refs {
            sys.step(r.cpu, r.op, r.addr);
            for node in &sys.nodes {
                assert!(node.events.len() < System::LOG_LEN, "a full log must drain at once");
                assert!(node.events.capacity() <= System::LOG_LEN);
                most = most.max(node.events.len());
            }
        }
        assert_eq!(most, System::LOG_LEN - 1, "every log should come close to the bound");
        assert!(sys.nodes.iter().all(|n| n.stats.snoops_seen as usize > 2 * System::LOG_LEN));
        sys.flush_filter_events();
        assert!(sys.nodes.iter().all(|n| n.events.is_empty()));
    }

    #[test]
    fn run_consumes_trace() {
        let mut sys = paper(&[]);
        sys.run(vec![MemRef::read(0, 0), MemRef::write(1, 64), MemRef::read(2, 0)]);
        assert_eq!(sys.run_stats().nodes.l1_accesses, 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_cpu() {
        let mut sys = paper(&[]);
        sys.access(7, Op::Read, 0);
    }

    #[test]
    fn upgrade_transaction_counts_remote_copies() {
        let mut sys = paper(&[]);
        sys.access(0, Op::Read, 0x40);
        sys.access(1, Op::Read, 0x40);
        sys.access(2, Op::Read, 0x40);
        // Upgrade from node 0 finds two remote copies.
        sys.access(0, Op::Write, 0x40);
        let hist = &sys.system_stats().remote_hit_hist;
        assert_eq!(hist[2], 2, "histogram: {hist:?}"); // read by 2 found 2; upgrade found 2
    }

    // ------------------------------------------------------------------
    // Protocol axis
    // ------------------------------------------------------------------

    #[test]
    fn mesi_dirty_supply_downgrades_to_shared_and_updates_memory() {
        let mut sys = with_protocol(ProtocolKind::Mesi);
        sys.access(0, Op::Write, 0x80); // M at node 0
        sys.access(1, Op::Read, 0x80); // node 0 supplies, M -> S, memory updated
        assert_eq!(sys.l2_state(0, 0x80), Moesi::Shared);
        assert_eq!(sys.l2_state(1, 0x80), Moesi::Shared);
        assert_eq!(sys.node_stats(0).snoop_supplies, 1);
        assert_eq!(sys.node_stats(0).snoop_memory_writebacks, 1);
    }

    #[test]
    fn mesi_keeps_silent_exclusive_upgrade() {
        let mut sys = with_protocol(ProtocolKind::Mesi);
        sys.access(0, Op::Read, 0x140); // E
        let out = sys.access(0, Op::Write, 0x140); // silent E->M
        assert_eq!(out.bus, None);
        assert_eq!(sys.l2_state(0, 0x140), Moesi::Modified);
    }

    #[test]
    fn msi_cold_read_installs_shared() {
        let mut sys = with_protocol(ProtocolKind::Msi);
        sys.access(0, Op::Read, 0x1000);
        assert_eq!(sys.l2_state(0, 0x1000), Moesi::Shared);
    }

    #[test]
    fn msi_first_store_after_read_pays_an_upgrade() {
        let mut sys = with_protocol(ProtocolKind::Msi);
        sys.access(0, Op::Read, 0x140); // S (no Exclusive state)
        let out = sys.access(0, Op::Write, 0x140);
        assert_eq!(out.bus, Some(BusKind::Upgrade));
        assert_eq!(sys.l2_state(0, 0x140), Moesi::Modified);
    }

    #[test]
    fn non_moesi_runs_never_produce_owned_or_foreign_states() {
        for kind in [ProtocolKind::Mesi, ProtocolKind::Msi] {
            let mut sys = tiny_with(kind, &[FilterSpec::include(6, 5, 6)]);
            for i in 0..2000u64 {
                let cpu = (i % 4) as usize;
                let addr = (i * 97) % 4096;
                if i % 3 == 0 {
                    sys.access(cpu, Op::Write, addr & !31);
                } else {
                    sys.access(cpu, Op::Read, addr & !31);
                }
            }
            sys.verify_inclusion();
            sys.verify_filter_consistency();
        }
    }

    #[test]
    fn protocols_change_the_would_miss_profile() {
        // The same sharing-heavy trace produces different snoop-miss
        // profiles per protocol (MSI's upgrade traffic adds transactions).
        let trace: Vec<MemRef> = (0..600)
            .map(|i| {
                let cpu = (i * 7) % 4;
                let addr = ((i * 13) % 40) * 32;
                if i % 3 == 0 {
                    MemRef::write(cpu, addr as u64)
                } else {
                    MemRef::read(cpu, addr as u64)
                }
            })
            .collect();
        let mut results = Vec::new();
        for kind in ProtocolKind::ALL {
            let mut sys = with_protocol(kind);
            sys.run(trace.iter().copied());
            results.push(sys.run_stats());
        }
        let (moesi, msi) = (&results[0], &results[2]);
        assert!(
            msi.system.transactions() > moesi.system.transactions(),
            "MSI must pay extra upgrade transactions: {} vs {}",
            msi.system.transactions(),
            moesi.system.transactions()
        );
        assert_eq!(moesi.nodes.snoop_memory_writebacks, 0);
    }

    // ------------------------------------------------------------------
    // Checker messages
    // ------------------------------------------------------------------

    /// Runs the invariant pass over unit 0 of a checked system whose L2s
    /// hold `states`, written straight into the arrays (no protocol
    /// action), and whose L1 on `l1_holder` (if any) holds the unit too.
    fn check_corrupted(protocol: ProtocolKind, states: [Moesi; 4], l1_holder: Option<usize>) {
        let mut sys = tiny_with(protocol, &[]);
        let unit = sys.config.addr.unit_of(0);
        for (node, state) in sys.nodes.iter_mut().zip(states).filter(|(_, s)| s.is_valid()) {
            node.l2.fill(unit, state, 0);
        }
        if let Some(i) = l1_holder {
            sys.nodes[i].l1.fill(unit, false);
        }
        sys.check_invariants(unit);
    }

    use Moesi::{Exclusive as E, Invalid as I, Modified as M, Owned as O, Shared as S};

    #[test]
    #[should_panic(
        expected = "multiple M/E holders of u0x0: [Modified, Exclusive, Invalid, Invalid]"
    )]
    fn checker_names_two_exclusive_holders() {
        check_corrupted(ProtocolKind::Moesi, [M, E, I, I], None);
    }

    #[test]
    #[should_panic(expected = "multiple O holders of u0x0: [Owned, Shared, Owned, Invalid]")]
    fn checker_names_two_owners() {
        check_corrupted(ProtocolKind::Moesi, [O, S, O, I], None);
    }

    #[test]
    #[should_panic(
        expected = "M/E copy of u0x0 coexists with other copies: [Invalid, Modified, Invalid, Shared]"
    )]
    fn checker_names_an_exclusive_copy_beside_a_shared_one() {
        check_corrupted(ProtocolKind::Moesi, [I, M, I, S], None);
    }

    #[test]
    #[should_panic(expected = "node 2 holds O for u0x0, outside the MESI state set")]
    fn checker_names_a_state_outside_the_protocol() {
        check_corrupted(ProtocolKind::Mesi, [S, I, O, I], None);
    }

    #[test]
    #[should_panic(expected = "inclusion violated on node 3: u0x0 in L1 but not L2")]
    fn checker_names_an_l1_copy_without_an_l2_copy() {
        check_corrupted(ProtocolKind::Moesi, [I; 4], Some(3));
    }

    #[test]
    #[should_panic(
        expected = "UNSAFE FILTER: IJ-6x5x6 filtered a snoop to cached unit u0x2 on node 1"
    )]
    fn full_check_unsafe_filter_panics_at_the_flush() {
        let mut sys = tiny(&[FilterSpec::exclude(8, 2), FilterSpec::include(6, 5, 6)]);
        sys.access(1, Op::Read, 0x40);
        // Untrack node 1's copy behind the L2's back: its IJ now filters
        // snoops to a unit it caches.
        let unit = sys.config.addr.unit_of(0x40);
        sys.nodes[1].filters.on_deallocate(unit);
        sys.run_chunk(&[MemRef::read(0, 0x40), MemRef::read(2, 0x80)]);
    }
}
