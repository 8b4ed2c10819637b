//! Portable scalar twins of every SIMD kernel.
//!
//! These are the *reference semantics*: the AVX2 implementations in
//! [`super::avx2`] must be observation-identical to these loops on every
//! input (pinned by `tests/simd_equivalence.rs`), and they are what the
//! dispatcher runs on hosts without AVX2. Each is written exactly like
//! the loop it replaced in the filter code, so scalar dispatch
//! reproduces the pre-kernel binary's behaviour instruction-for-instruction
//! where it matters (order of comparisons, lowest-index match selection,
//! early exits).

use super::{EjGeom, IjReplayOut, ReplayOut, VejGeom};
use crate::filter::{FilterEvent, MissScope};

/// Lowest way index in `keys` whose Exclude-Jetty key matches `tag`
/// (`key >> 1 == tag`; the all-ones empty key can never match a real tag).
///
/// The branchless reverse scan keeps the lowest-index match, exactly like
/// the historical `ExcludeJetty::find` loop.
#[inline]
fn find_key_ej(keys: &[u64], tag: u64) -> Option<usize> {
    let mut found = usize::MAX;
    for (way, &k) in keys.iter().enumerate().rev() {
        if k >> 1 == tag {
            found = way;
        }
    }
    (found != usize::MAX).then_some(found)
}

/// Lowest way index in `tags` equal to `tag` (Vector-Exclude-Jetty find;
/// the all-ones empty tag can never match a real chunk tag).
#[inline]
fn find_key_vej(tags: &[u64], tag: u64) -> Option<usize> {
    let mut found = usize::MAX;
    for (way, &t) in tags.iter().enumerate().rev() {
        if t == tag {
            found = way;
        }
    }
    (found != usize::MAX).then_some(found)
}

/// Replays one [`FilterEvent`] chunk against an Exclude-Jetty's flat
/// `keys`/`stamps` arrays — the reference loop the AVX2 twin must match.
/// Per snoop: split the unit address with `geom` (two shifts + a mask),
/// find the way (lowest match), stamp the LRU clock on a hit, count the
/// filtered/union-filtered snoop (stopping at the first unsafe one,
/// where the eager path would have panicked), set the present bit or
/// insert via a first-minimum victim scan on recordable misses that
/// nothing filtered. Per allocate: find + clear the present bit. A
/// deallocate never changes EJ state.
pub(super) fn ej_replay(
    keys: &mut [u64],
    stamps: &mut [u64],
    ways: usize,
    clock: u64,
    geom: EjGeom,
    events: &[FilterEvent],
    ij_filtered: &[bool],
) -> ReplayOut {
    let mut out = ReplayOut { clock, ..ReplayOut::default() };
    for (i, e) in events.iter().enumerate() {
        match *e {
            FilterEvent::Snoop { unit, would_hit, scope } => {
                out.probes += 1;
                let block = unit.raw() >> geom.block_shift;
                let base = (block & geom.set_mask) as usize * ways;
                let tag = block >> geom.set_bits;
                let keys = &mut keys[base..base + ways];
                let stamps = &mut stamps[base..base + ways];
                let ijf = !ij_filtered.is_empty() && ij_filtered[i];
                let recordable = !would_hit && scope == MissScope::Block && !ijf;
                let mut ej_filtered = false;
                if let Some(way) = find_key_ej(keys, tag) {
                    out.clock += 1;
                    stamps[way] = out.clock;
                    if keys[way] & 1 != 0 {
                        ej_filtered = true;
                        out.filtered += 1;
                    } else if recordable {
                        out.records += 1;
                        keys[way] |= 1;
                        out.clock += 1;
                        stamps[way] = out.clock;
                    }
                } else if recordable {
                    out.records += 1;
                    out.clock += 1;
                    // First-minimum scan == `min_by_key` over the set.
                    let mut victim = 0;
                    let mut oldest = stamps[0];
                    for (w, &st) in stamps.iter().enumerate().skip(1) {
                        if st < oldest {
                            oldest = st;
                            victim = w;
                        }
                    }
                    keys[victim] = tag << 1 | 1;
                    stamps[victim] = out.clock;
                }
                if ej_filtered || ijf {
                    out.union_filtered += 1;
                    if would_hit {
                        out.unsafe_at = Some(i);
                        return out;
                    }
                }
            }
            FilterEvent::Allocate(unit) => {
                out.allocates += 1;
                let block = unit.raw() >> geom.block_shift;
                let base = (block & geom.set_mask) as usize * ways;
                let tag = block >> geom.set_bits;
                let keys = &mut keys[base..base + ways];
                if let Some(way) = find_key_ej(keys, tag) {
                    if keys[way] & 1 != 0 {
                        keys[way] &= !1;
                        out.writes += 1;
                    }
                }
            }
            FilterEvent::Deallocate(_) => {}
        }
    }
    out
}

/// Replays one [`FilterEvent`] chunk against a Vector-Exclude-Jetty's
/// flat `tags`/`vectors`/`stamps` arrays (the [`ej_replay`] logic with a
/// present-vector lane test in place of the present bit; `geom` peels
/// the lane off the block address first).
pub(super) fn vej_replay(
    tags: &mut [u64],
    vectors: &mut [u64],
    stamps: &mut [u64],
    ways: usize,
    clock: u64,
    geom: VejGeom,
    events: &[FilterEvent],
    ij_filtered: &[bool],
) -> ReplayOut {
    let mut out = ReplayOut { clock, ..ReplayOut::default() };
    for (i, e) in events.iter().enumerate() {
        match *e {
            FilterEvent::Snoop { unit, would_hit, scope } => {
                out.probes += 1;
                let block = unit.raw() >> geom.block_shift;
                let bit = 1u64 << (block & geom.lane_mask);
                let chunk = block >> geom.lane_bits;
                let base = (chunk & geom.set_mask) as usize * ways;
                let tag = chunk >> geom.set_bits;
                let tags = &mut tags[base..base + ways];
                let vectors = &mut vectors[base..base + ways];
                let stamps = &mut stamps[base..base + ways];
                let ijf = !ij_filtered.is_empty() && ij_filtered[i];
                let recordable = !would_hit && scope == MissScope::Block && !ijf;
                let mut ej_filtered = false;
                if let Some(way) = find_key_vej(tags, tag) {
                    out.clock += 1;
                    stamps[way] = out.clock;
                    if vectors[way] & bit != 0 {
                        ej_filtered = true;
                        out.filtered += 1;
                    } else if recordable {
                        out.records += 1;
                        vectors[way] |= bit;
                        out.clock += 1;
                        stamps[way] = out.clock;
                    }
                } else if recordable {
                    out.records += 1;
                    out.clock += 1;
                    // First-minimum scan == `min_by_key` over the set.
                    let mut victim = 0;
                    let mut oldest = stamps[0];
                    for (w, &st) in stamps.iter().enumerate().skip(1) {
                        if st < oldest {
                            oldest = st;
                            victim = w;
                        }
                    }
                    tags[victim] = tag;
                    vectors[victim] = bit;
                    stamps[victim] = out.clock;
                }
                if ej_filtered || ijf {
                    out.union_filtered += 1;
                    if would_hit {
                        out.unsafe_at = Some(i);
                        return out;
                    }
                }
            }
            FilterEvent::Allocate(unit) => {
                out.allocates += 1;
                let block = unit.raw() >> geom.block_shift;
                let bit = 1u64 << (block & geom.lane_mask);
                let chunk = block >> geom.lane_bits;
                let base = (chunk & geom.set_mask) as usize * ways;
                let tag = chunk >> geom.set_bits;
                let tags = &mut tags[base..base + ways];
                let vectors = &mut vectors[base..base + ways];
                if let Some(way) = find_key_vej(tags, tag) {
                    if vectors[way] & bit != 0 {
                        vectors[way] &= !bit;
                        out.writes += 1;
                    }
                }
            }
            FilterEvent::Deallocate(_) => {}
        }
    }
    out
}

/// `true` when any of the `sub_arrays` Include-Jetty p-bits selected by
/// `unit` is clear (the unit is guaranteed absent). Sub-array `i` is
/// indexed by bits `[i*skip, i*skip + index_bits)` of the unit address;
/// entry `idx` of sub-array `i` lives at packed bit `(i << index_bits) |
/// idx` of `pbits`. The early exit on the first clear bit matches
/// `IncludeJetty::probe`; the observable outcome (and the uniform energy
/// charge derived from probe counts) is identical either way.
#[inline]
pub(super) fn pbit_absent(
    pbits: &[u64],
    unit: u64,
    index_bits: u32,
    sub_arrays: u32,
    skip: u32,
) -> bool {
    let mask = (1u64 << index_bits) - 1;
    for i in 0..sub_arrays {
        let lo = i * skip;
        let idx = if lo >= 64 { 0 } else { (unit >> lo) & mask };
        let slot = ((i as usize) << index_bits) | idx as usize;
        if pbits[slot >> 6] & (1u64 << (slot & 63)) == 0 {
            return true;
        }
    }
    false
}

/// One Include-Jetty allocate: per sub-array, the counter
/// read-modify-write plus the data-dependent p-bit `0 -> 1` transition,
/// counted into `pbit_writes[sub_array]`. Identical sequence (including
/// the saturation assert) to `IncludeJetty::on_allocate`.
pub(super) fn ij_allocate(
    counts: &mut [u16],
    pbits: &mut [u64],
    index_bits: u32,
    sub_arrays: u32,
    skip: u32,
    unit: u64,
    pbit_writes: &mut [u64],
) {
    let mask = (1u64 << index_bits) - 1;
    for i in 0..sub_arrays {
        let lo = i * skip;
        let idx = if lo >= 64 { 0 } else { (unit >> lo) & mask } as usize;
        let slot = ((i as usize) << index_bits) | idx;
        let count = &mut counts[slot];
        assert!(
            *count < u16::MAX,
            "IJ counter saturated in sub-array {i} entry {idx}: cache population \
             exceeds the u16 counter range for this configuration"
        );
        let was_zero = *count == 0;
        *count += 1;
        if was_zero {
            pbit_writes[i as usize] += 1;
            pbits[slot >> 6] |= 1u64 << (slot & 63);
        }
    }
}

/// One Include-Jetty deallocate: the [`ij_allocate`] sequence in reverse
/// (counter decrement, p-bit `1 -> 0` on the last departure), with the
/// same underflow assert as `IncludeJetty::on_deallocate`.
pub(super) fn ij_deallocate(
    counts: &mut [u16],
    pbits: &mut [u64],
    index_bits: u32,
    sub_arrays: u32,
    skip: u32,
    unit: u64,
    pbit_writes: &mut [u64],
) {
    let mask = (1u64 << index_bits) - 1;
    for i in 0..sub_arrays {
        let lo = i * skip;
        let idx = if lo >= 64 { 0 } else { (unit >> lo) & mask } as usize;
        let slot = ((i as usize) << index_bits) | idx;
        let count = &mut counts[slot];
        assert!(
            *count > 0,
            "IJ counter underflow in sub-array {i} entry {idx}: \
             deallocate without matching allocate (protocol bug)"
        );
        *count -= 1;
        if *count == 0 {
            pbit_writes[i as usize] += 1;
            pbits[slot >> 6] &= !(1u64 << (slot & 63));
        }
    }
}

/// Replays one [`FilterEvent`] chunk against an Include-Jetty's
/// `counts`/`pbits` arrays. Snoops are pure p-bit tests; with
/// `verdicts: Some`, the absent verdict is pushed per event (the
/// hybrid's EJ pass consumes it; non-snoop events push `false` to keep
/// the vector parallel), while standalone callers pass `None` and skip
/// the bookkeeping. Allocates/deallocates run the counter
/// read-modify-writes in event order. Unlike the EJ/VEJ replays this
/// does **not** stop at the first unsafe filter — the hybrid needs
/// every snoop's verdict regardless (its EJ pass is the panic
/// authority), and for a standalone IJ the caller panics right after
/// the call, so the extra post-panic state is unobservable.
pub(super) fn ij_replay(
    counts: &mut [u16],
    pbits: &mut [u64],
    index_bits: u32,
    sub_arrays: u32,
    skip: u32,
    events: &[FilterEvent],
    verdicts: Option<&mut Vec<bool>>,
    pbit_writes: &mut [u64],
) -> IjReplayOut {
    match verdicts {
        Some(v) => ij_replay_impl::<true>(
            counts,
            pbits,
            index_bits,
            sub_arrays,
            skip,
            events,
            v,
            pbit_writes,
        ),
        None => ij_replay_impl::<false>(
            counts,
            pbits,
            index_bits,
            sub_arrays,
            skip,
            events,
            &mut Vec::new(),
            pbit_writes,
        ),
    }
}

/// [`ij_replay`] body, monomorphised over whether verdicts are recorded
/// so the standalone path carries no per-event push.
fn ij_replay_impl<const RECORD: bool>(
    counts: &mut [u16],
    pbits: &mut [u64],
    index_bits: u32,
    sub_arrays: u32,
    skip: u32,
    events: &[FilterEvent],
    verdicts: &mut Vec<bool>,
    pbit_writes: &mut [u64],
) -> IjReplayOut {
    let mut out = IjReplayOut::default();
    for (i, e) in events.iter().enumerate() {
        match *e {
            FilterEvent::Snoop { unit, would_hit, .. } => {
                out.probes += 1;
                let absent = pbit_absent(pbits, unit.raw(), index_bits, sub_arrays, skip);
                if RECORD {
                    verdicts.push(absent);
                }
                if absent {
                    out.filtered += 1;
                    if would_hit && out.unsafe_at.is_none() {
                        out.unsafe_at = Some(i);
                    }
                }
            }
            FilterEvent::Allocate(unit) => {
                out.allocates += 1;
                if RECORD {
                    verdicts.push(false);
                }
                ij_allocate(counts, pbits, index_bits, sub_arrays, skip, unit.raw(), pbit_writes);
            }
            FilterEvent::Deallocate(unit) => {
                out.deallocates += 1;
                if RECORD {
                    verdicts.push(false);
                }
                ij_deallocate(counts, pbits, index_bits, sub_arrays, skip, unit.raw(), pbit_writes);
            }
        }
    }
    out
}

/// Batch twin of [`pbit_absent`] over a run of snoop unit addresses.
pub(super) fn pbit_test_many(
    pbits: &[u64],
    units: &[u64],
    index_bits: u32,
    sub_arrays: u32,
    skip: u32,
    absent: &mut Vec<bool>,
) {
    for &u in units {
        absent.push(pbit_absent(pbits, u, index_bits, sub_arrays, skip));
    }
}
