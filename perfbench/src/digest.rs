//! Output digests: FNV-1a 64 over a canonical encoding of the simulated
//! results, so a speed-only change can be checked to leave every number
//! the simulator produces unchanged.
//!
//! The encoding names fields explicitly instead of hashing `Debug` output:
//! a counter added to `NodeStats` or `FilterActivity` later leaves the
//! pinned digests valid, while any change to an existing value breaks them.

use jetty_experiments::store::fnv64;
use jetty_experiments::AppRun;

/// Lower-case hex of an FNV-1a 64 digest.
pub fn hex(bytes: &[u8]) -> String {
    format!("{:016x}", fnv64(bytes))
}

/// Digest of one application run: `RunStats` plus every `FilterReport`.
pub fn app_run(run: &AppRun) -> String {
    let mut buf = Vec::new();
    encode_app_run(&mut buf, run);
    hex(&buf)
}

/// Digest of a suite: its application runs in order.
pub fn suite(runs: &[AppRun]) -> String {
    let mut buf = Vec::new();
    for run in runs {
        encode_app_run(&mut buf, run);
    }
    hex(&buf)
}

fn encode_app_run(buf: &mut Vec<u8>, run: &AppRun) {
    let mut put = |v: u64| buf.extend_from_slice(&v.to_le_bytes());
    put(run.footprint);
    put(run.refs);
    let n = &run.run.nodes;
    for v in [
        n.l1_accesses,
        n.l1_hits,
        n.l1_writebacks,
        n.l2_local_accesses,
        n.l2_local_hits,
        n.l2_tag_reads,
        n.l2_tag_writes,
        n.l2_data_reads,
        n.l2_evict_data_reads,
        n.l2_data_writes,
        n.l2_evicted_units,
        n.wb_pushes,
        n.wb_drains,
        n.wb_local_hits,
        n.snoops_seen,
        n.wb_probes,
        n.wb_snoop_hits,
        n.snoop_hits,
        n.snoop_would_miss,
        n.snoop_state_writes,
        n.snoop_supplies,
        n.snoop_memory_writebacks,
        n.snoop_invalidations,
        n.bus_reads,
        n.bus_read_exclusives,
        n.bus_upgrades,
    ] {
        put(v);
    }
    let s = &run.run.system;
    for v in
        [s.bus_reads, s.bus_read_exclusives, s.bus_upgrades, s.cache_supplies, s.memory_supplies]
    {
        put(v);
    }
    for &v in &s.remote_hit_hist {
        put(v);
    }
    for report in &run.reports {
        put(report.probes);
        put(report.filtered);
        put(report.would_miss);
        put(report.storage_bits as u64);
        for activity in &report.activities {
            put(activity.probes);
            put(activity.filtered);
            for array in &activity.arrays {
                put(array.reads);
                put(array.writes);
            }
        }
    }
    buf.extend_from_slice(run.profile.abbrev.as_bytes());
    for report in &run.reports {
        buf.extend_from_slice(report.label.as_bytes());
    }
}
