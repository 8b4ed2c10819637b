//! AVX2 implementations of the replay kernels.
//!
//! Every function here is a safe `#[target_feature(enable = "avx2")]`
//! function: the dispatcher in [`super`] is the only caller from
//! non-AVX2 contexts, and its `unsafe` call is justified by the
//! [`super::SimdLevel`] capability token (constructed only after
//! runtime detection). Within this file the remaining `unsafe` blocks
//! are the pointer intrinsics — unaligned loads bounded by slice-length
//! checks, and gathers whose index ranges the dispatcher asserts.
//!
//! The set-window scans need no empty-way masking because the EJ/VEJ
//! sentinel words (`u64::MAX`) can never equal a real tag (see the
//! module docs in [`super`]); `_mm256_cmpeq_epi64` against the
//! broadcast needle is therefore exact.

#![allow(unsafe_code)]

use core::arch::x86_64::{
    __m256i, _mm256_and_si256, _mm256_castsi256_pd, _mm256_cmpeq_epi64, _mm256_i64gather_epi64,
    _mm256_loadu_si256, _mm256_movemask_pd, _mm256_or_si256, _mm256_set1_epi64x, _mm256_set_epi64x,
    _mm256_sllv_epi64, _mm256_srl_epi64, _mm256_srli_epi64, _mm256_testz_si256, _mm_cvtsi64_si128,
};

use super::{scalar, EjGeom, IjReplayOut, ReplayOut, VejGeom};
use crate::filter::{FilterEvent, MissScope};

/// 4-lane find over a set window: compares `keys[w] >> SHIFT` against
/// `tag` (`SHIFT` is 1 for EJ keys, 0 for VEJ tags) and returns the
/// lowest matching way. Full 4-wide chunks use one unaligned load, a
/// lane compare, and a movemask; the sub-4 tail falls back to a scalar
/// first-match scan (loading past the window would read the next set).
/// Both halves return the lowest index, matching the scalar twin's
/// keep-lowest reverse scan.
#[target_feature(enable = "avx2")]
#[inline]
fn find_lanes<const SHIFT: i32>(keys: &[u64], tag: u64) -> Option<usize> {
    let needle = _mm256_set1_epi64x(tag as i64);
    let mut i = 0;
    while i + 4 <= keys.len() {
        // SAFETY: `i + 4 <= keys.len()` keeps the 32-byte unaligned
        // load inside the slice.
        let v = unsafe { _mm256_loadu_si256(keys.as_ptr().add(i).cast::<__m256i>()) };
        let eq = _mm256_cmpeq_epi64(_mm256_srli_epi64::<SHIFT>(v), needle);
        let hits = _mm256_movemask_pd(_mm256_castsi256_pd(eq)) as u32;
        if hits != 0 {
            return Some(i + hits.trailing_zeros() as usize);
        }
        i += 4;
    }
    keys[i..].iter().position(|&k| k >> SHIFT == tag).map(|p| i + p)
}

/// AVX2 twin of [`scalar::ej_replay`]: the identical replay loop, with
/// the way scan compiled as the lane compare above (inlined — this
/// whole function body is AVX2 code, so the per-event find costs no
/// cross-feature call).
#[target_feature(enable = "avx2")]
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
                if let Some(way) = find_lanes::<1>(keys, tag) {
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
                if let Some(way) = find_lanes::<1>(keys, tag) {
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

/// AVX2 twin of [`scalar::vej_replay`].
#[target_feature(enable = "avx2")]
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
                if let Some(way) = find_lanes::<0>(tags, tag) {
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
                if let Some(way) = find_lanes::<0>(tags, tag) {
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

/// Absent mask (one bit per lane, bit set = guaranteed absent) for four
/// unit addresses against the packed p-bit bitmap: one gather + compare
/// per sub-array, accumulating presence, and — like the scalar early
/// exit on the first clear p-bit — skipping the remaining sub-arrays as
/// soon as every lane is already decided absent (the observable result
/// and the uniform probe-derived energy charge are identical either
/// way).
#[target_feature(enable = "avx2")]
#[inline]
fn pbit_lanes4(pbits: &[u64], u: __m256i, index_bits: u32, sub_arrays: u32, skip: u32) -> u32 {
    let idx_mask = _mm256_set1_epi64x(((1u64 << index_bits) - 1) as i64);
    let ones = _mm256_set1_epi64x(1);
    let low6 = _mm256_set1_epi64x(63);
    // Sub-array 0 peeled: its index needs no shift and no sub-array
    // offset, and on sparse filters its clear p-bits decide every lane
    // (the common early exit), so the hot first probe stays minimal.
    let slot0 = _mm256_and_si256(u, idx_mask);
    let word0 = _mm256_srli_epi64::<6>(slot0);
    let bit0 = _mm256_sllv_epi64(ones, _mm256_and_si256(slot0, low6));
    // SAFETY: `slot0` is masked to `index_bits` bits, below
    // `sub_arrays << index_bits`, and the dispatcher asserted `pbits`
    // holds that many bits — each gathered word index is in bounds.
    let words0 = unsafe { _mm256_i64gather_epi64::<8>(pbits.as_ptr().cast::<i64>(), word0) };
    let mut present = _mm256_cmpeq_epi64(_mm256_and_si256(words0, bit0), bit0);
    for a in 1..sub_arrays {
        if _mm256_testz_si256(present, present) == 1 {
            break;
        }
        // Shift counts >= 64 yield zero, matching the scalar `lo >= 64`
        // guard.
        let shift = _mm_cvtsi64_si128((a * skip) as i64);
        let idx = _mm256_and_si256(_mm256_srl_epi64(u, shift), idx_mask);
        let slot = _mm256_or_si256(idx, _mm256_set1_epi64x(((a as u64) << index_bits) as i64));
        let word = _mm256_srli_epi64::<6>(slot);
        let bit = _mm256_sllv_epi64(ones, _mm256_and_si256(slot, low6));
        // SAFETY: as for sub-array 0 — `idx` is masked to `index_bits`
        // bits, so every lane's `slot` stays below
        // `sub_arrays << index_bits` and within `pbits`.
        let words = unsafe { _mm256_i64gather_epi64::<8>(pbits.as_ptr().cast::<i64>(), word) };
        let set = _mm256_cmpeq_epi64(_mm256_and_si256(words, bit), bit);
        present = _mm256_and_si256(present, set);
    }
    !(_mm256_movemask_pd(_mm256_castsi256_pd(present)) as u32) & 0xF
}

/// Raw unit address and would-hit flag of a snoop event; only called on
/// indices a run scan has already established to be snoops.
#[inline]
fn snoop_parts(e: &FilterEvent) -> (u64, u32) {
    if let FilterEvent::Snoop { unit, would_hit, .. } = *e {
        (unit.raw(), u32::from(would_hit))
    } else {
        (0, 0)
    }
}

/// AVX2 twin of [`scalar::ij_replay`]: each maximal run of consecutive
/// snoops is tested four units per iteration through [`pbit_lanes4`]
/// (units packed straight from the event chunk with one `set` per
/// quad), with a scalar tail; allocates/deallocates run the (rare,
/// data-dependent) scalar counter read-modify-writes in event order.
#[target_feature(enable = "avx2")]
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
/// so the standalone path carries no per-event push. The would-hit flags
/// of each quad are packed into a lane mask alongside the units, so the
/// unsafe-filter check is one `and` + `trailing_zeros` instead of
/// re-reading the events.
#[target_feature(enable = "avx2")]
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
    let mut i = 0;
    while i < events.len() {
        match events[i] {
            FilterEvent::Snoop { .. } => {
                let mut end = i + 1;
                while end < events.len() && matches!(events[end], FilterEvent::Snoop { .. }) {
                    end += 1;
                }
                out.probes += (end - i) as u64;
                let quads = events[i..end].chunks_exact(4);
                let mut k = i;
                for quad in quads {
                    let (u0, w0) = snoop_parts(&quad[0]);
                    let (u1, w1) = snoop_parts(&quad[1]);
                    let (u2, w2) = snoop_parts(&quad[2]);
                    let (u3, w3) = snoop_parts(&quad[3]);
                    // `_mm256_set_epi64x` takes lanes high-to-low:
                    // events[k] lands in lane 0.
                    let u = _mm256_set_epi64x(u3 as i64, u2 as i64, u1 as i64, u0 as i64);
                    let would_hit = w0 | (w1 << 1) | (w2 << 2) | (w3 << 3);
                    let absent = pbit_lanes4(pbits, u, index_bits, sub_arrays, skip);
                    if RECORD {
                        for lane in 0..4u32 {
                            verdicts.push(absent & (1 << lane) != 0);
                        }
                    }
                    out.filtered += u64::from(absent.count_ones());
                    let bad = absent & would_hit;
                    if bad != 0 && out.unsafe_at.is_none() {
                        out.unsafe_at = Some(k + bad.trailing_zeros() as usize);
                    }
                    k += 4;
                }
                while k < end {
                    if let FilterEvent::Snoop { unit, would_hit, .. } = events[k] {
                        let a =
                            scalar::pbit_absent(pbits, unit.raw(), index_bits, sub_arrays, skip);
                        if RECORD {
                            verdicts.push(a);
                        }
                        if a {
                            out.filtered += 1;
                            if would_hit && out.unsafe_at.is_none() {
                                out.unsafe_at = Some(k);
                            }
                        }
                    }
                    k += 1;
                }
                i = end;
            }
            FilterEvent::Allocate(unit) => {
                out.allocates += 1;
                if RECORD {
                    verdicts.push(false);
                }
                scalar::ij_allocate(
                    counts,
                    pbits,
                    index_bits,
                    sub_arrays,
                    skip,
                    unit.raw(),
                    pbit_writes,
                );
                i += 1;
            }
            FilterEvent::Deallocate(unit) => {
                out.deallocates += 1;
                if RECORD {
                    verdicts.push(false);
                }
                scalar::ij_deallocate(
                    counts,
                    pbits,
                    index_bits,
                    sub_arrays,
                    skip,
                    unit.raw(),
                    pbit_writes,
                );
                i += 1;
            }
        }
    }
    out
}

/// AVX2 twin of [`scalar::pbit_test_many`]: four units per iteration
/// through [`pbit_lanes4`], scalar tail for the last `len % 4` units.
#[target_feature(enable = "avx2")]
pub(super) fn pbit_test_many(
    pbits: &[u64],
    units: &[u64],
    index_bits: u32,
    sub_arrays: u32,
    skip: u32,
    absent: &mut Vec<bool>,
) {
    let mut i = 0;
    while i + 4 <= units.len() {
        // SAFETY: `i + 4 <= units.len()` keeps the 32-byte unaligned
        // load inside the slice.
        let u = unsafe { _mm256_loadu_si256(units.as_ptr().add(i).cast::<__m256i>()) };
        let m = pbit_lanes4(pbits, u, index_bits, sub_arrays, skip);
        for lane in 0..4 {
            absent.push(m & (1 << lane) != 0);
        }
        i += 4;
    }
    for &u in &units[i..] {
        absent.push(scalar::pbit_absent(pbits, u, index_bits, sub_arrays, skip));
    }
}
