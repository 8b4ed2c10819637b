//! Runtime-dispatched SIMD kernels for the batched snoop replay.
//!
//! The chunked runner (ARCHITECTURE §2a) funnels every hot probe loop
//! through `apply_batch`, which hands each node's whole
//! [`FilterEvent`] chunk to **one kernel call** — no gather pass, no
//! scratch copy: the kernel consumes the event array in place, splits
//! addresses with the filter's [`EjGeom`]/[`VejGeom`] shift/mask
//! geometry as it goes, and fuses find + probe + record around a single
//! lookup per snoop. The per-call dispatch cost amortises over
//! thousands of events and the replay loop compiles as a single AVX2
//! function. This module supplies four such kernels — [`ej_replay`],
//! [`vej_replay`], [`ij_replay`] and [`pbit_test_many`] — each in two
//! interchangeable implementations: a portable scalar one (`scalar`,
//! the reference semantics) and an AVX2 one (`avx2`,
//! `std::arch::x86_64`).
//!
//! Which one runs is a platform fact, not a user option:
//! [`active_level`] is AVX2 exactly when
//! `is_x86_feature_detected!("avx2")` says the host has it. The level
//! surfaces in `--timings` as a `kernel=` tag so recorded timings carry
//! their dispatch context. Each kernel keeps its AVX2 twin only on
//! measured evidence, recorded in its doc comment.
//!
//! # Why the lane compares need no empty-way masking
//!
//! EJ keys (`tag << 1 | present`) and VEJ tags mark never-used ways with
//! the all-ones sentinel (`u64::MAX`). Real tags are bounded by the
//! address space (at most ~34 bits), so a sentinel can never compare
//! equal to a probe tag: the 4×u64 `_mm256_cmpeq_epi64` sweep over a set
//! window is alias-free without masking out empty ways. Likewise IJ's
//! packed p-bit bitmap is a plain dense array indexed by masked address
//! bits, so gathers stay in bounds by construction (asserted in the
//! safe wrappers below).
//!
//! # Safety structure
//!
//! This module and its `avx2` submodule are the **only** places in
//! `jetty-core` that may use `unsafe` (the crate denies `unsafe_code`
//! elsewhere, plus `unsafe_op_in_unsafe_fn` everywhere). The AVX2
//! kernels are safe `#[target_feature(enable = "avx2")]` functions:
//! inside them, value intrinsics are safe, and the few pointer
//! operations (unaligned loads, gathers) sit in small `unsafe` blocks
//! whose bounds are established by slice-length checks or wrapper
//! assertions. Calling an AVX2 kernel from the dispatchers here is the
//! one remaining unsafe operation, and it is sound by construction: an
//! AVX2-flavoured [`SimdLevel`] can only be obtained from
//! [`SimdLevel::avx2`], which returns one *after* runtime detection
//! succeeded.

// Kernel signatures pass the filter geometry as flat scalars (shifts,
// masks, widths) rather than bundling them into structs: the arguments
// mirror the paper's array parameters one-to-one and keep the hot call
// ABI register-only.
#![allow(clippy::too_many_arguments)]

#[cfg(target_arch = "x86_64")]
mod avx2;
mod scalar;

use crate::filter::FilterEvent;

/// Capability token naming a kernel implementation.
///
/// The inner representation is private so the AVX2 variant cannot be
/// conjured from thin air: [`SimdLevel::SCALAR`] is always available,
/// while an AVX2 level exists only via [`SimdLevel::avx2`] (runtime
/// detection). Every kernel entry point takes an explicit level, so
/// differential tests and benches can run either path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimdLevel(Level);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Level {
    Scalar,
    Avx2,
}

impl SimdLevel {
    /// The portable scalar kernels — always available, reference
    /// semantics for the differential tests.
    pub const SCALAR: SimdLevel = SimdLevel(Level::Scalar);

    /// The AVX2 kernels, if this host supports them. Returning the
    /// token only after `is_x86_feature_detected!("avx2")` succeeds is
    /// what makes the dispatchers' unsafe calls sound.
    pub fn avx2() -> Option<SimdLevel> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Some(SimdLevel(Level::Avx2));
        }
        None
    }

    /// `true` when this level runs the AVX2 kernels.
    pub fn is_avx2(self) -> bool {
        matches!(self.0, Level::Avx2)
    }

    /// Stable lowercase name (`"scalar"` / `"avx2"`) used by the
    /// `--timings` `kernel=` tag.
    pub fn name(self) -> &'static str {
        match self.0 {
            Level::Scalar => "scalar",
            Level::Avx2 => "avx2",
        }
    }
}

/// The level every run uses: AVX2 when this host supports it, scalar
/// otherwise. `std` caches the feature detection, so a call is one
/// atomic load.
pub fn active_level() -> SimdLevel {
    SimdLevel::avx2().unwrap_or(SimdLevel::SCALAR)
}

/// Address-split geometry of an Exclude-Jetty, precomputed so the
/// replay kernel can turn a raw unit address into (set, tag) with two
/// shifts and a mask — no per-event method calls back into the filter.
#[derive(Clone, Copy, Debug)]
pub struct EjGeom {
    /// Right-shift turning a raw unit address into a block address.
    pub block_shift: u32,
    /// `sets - 1`: the set-index mask applied to the block address.
    pub set_mask: u64,
    /// `log2(sets)`: the tag shift.
    pub set_bits: u32,
}

/// Address-split geometry of a Vector-Exclude-Jetty: like [`EjGeom`]
/// with a present-vector lane peeled off the block address first.
#[derive(Clone, Copy, Debug)]
pub struct VejGeom {
    /// Right-shift turning a raw unit address into a block address.
    pub block_shift: u32,
    /// `vector_len - 1`: the lane mask applied to the block address.
    pub lane_mask: u64,
    /// `log2(vector_len)`: the chunk shift.
    pub lane_bits: u32,
    /// `sets - 1`: the set-index mask applied to the chunk address.
    pub set_mask: u64,
    /// `log2(sets)`: the tag shift.
    pub set_bits: u32,
}

/// Result of replaying one event chunk through an EJ/VEJ kernel.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplayOut {
    /// Snoop events in the chunk (uniform tag-read probe charges).
    pub probes: u64,
    /// Allocate events in the chunk (uniform tag-read charges).
    pub allocates: u64,
    /// Snoops this component itself answered `NotCached`.
    pub filtered: u64,
    /// Snoops filtered by this component *or* by the paired IJ verdict
    /// slice — the hybrid's union verdict count. Equals `filtered` for
    /// standalone replays.
    pub union_filtered: u64,
    /// Block records inserted or refreshed.
    pub records: u64,
    /// Tag-array writes caused by allocate events clearing a present
    /// bit/lane.
    pub writes: u64,
    /// The LRU clock after the chunk.
    pub clock: u64,
    /// Index (into the event chunk) of the first snoop whose union
    /// verdict filtered a `would_hit` event — an unsafe-filter bug the
    /// caller must turn into the standard panic (the kernel stops
    /// there, exactly where the eager path would have panicked).
    pub unsafe_at: Option<usize>,
}

/// Result of replaying one event chunk through the IJ kernel.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IjReplayOut {
    /// Snoop events in the chunk (uniform p-bit-read probe charges).
    pub probes: u64,
    /// Allocate events in the chunk (uniform counter-RMW charges).
    pub allocates: u64,
    /// Deallocate events in the chunk (uniform counter-RMW charges).
    pub deallocates: u64,
    /// Snoops the Include-Jetty answered `NotCached` (each also pushed
    /// as `true` into the verdict vector).
    pub filtered: u64,
    /// Index of the first snoop that filtered a `would_hit` event. The
    /// kernel keeps going (the hybrid's EJ/VEJ pass is the panic
    /// authority and must see every verdict); a standalone IJ replay
    /// panics on it after the call, and any state mutated past that
    /// point is unobservable behind the panic.
    pub unsafe_at: Option<usize>,
}

macro_rules! dispatch {
    ($level:expr, $name:ident ( $($arg:expr),* $(,)? )) => {
        match $level.0 {
            Level::Scalar => scalar::$name($($arg),*),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: an AVX2 `SimdLevel` is only constructible through
            // `SimdLevel::avx2()`, which returns one after
            // `is_x86_feature_detected!("avx2")` succeeded on this
            // host, so the target-feature contract holds.
            #[allow(unsafe_code)]
            Level::Avx2 => unsafe { avx2::$name($($arg),*) },
            #[cfg(not(target_arch = "x86_64"))]
            Level::Avx2 => unreachable!("AVX2 level cannot exist off x86_64"),
        }
    };
}

/// Replays one [`FilterEvent`] chunk against an Exclude-Jetty's flat
/// `keys`/`stamps` arrays, splitting each unit address with `geom` as
/// it goes. Snoops: find (kernel scan), LRU stamp on hit,
/// filtered/record bookkeeping, first-minimum victim scan on recordable
/// misses — bit-for-bit the logic of the eager probe + record sequence.
/// Allocates: find + clear the present bit (counted in
/// [`ReplayOut::writes`]). Deallocates: a no-op.
///
/// `ij_filtered` is the hybrid's IJ verdict slice, parallel to
/// `events` (one `bool` per event, `true` only for IJ-filtered
/// snoops); pass an empty slice for a standalone replay. An
/// IJ-filtered snoop is treated as already filtered: it cannot record,
/// and it counts toward [`ReplayOut::union_filtered`] and the
/// unsafe-filter check.
///
/// Why the AVX2 twin stays: in six interleaved traced `perfbench`
/// paper-all pairs (scale 0.1, 2-vCPU x86_64 VM), standalone EJ replay
/// (`core.replay_ej_s`) ran +6.8% slower on the scalar kernels
/// (median; AVX2 faster in 5 of 6 pairs), against ±5% noise on the
/// kernel-free gen and substrate layers. `BENCH_baseline.json` records
/// 105 vs 192 Melem/s for `kernels/ej_replay_*`.
///
/// # Panics
///
/// Panics if `ways` is zero, the arrays' lengths differ from
/// `sets * ways` per `geom`, or `ij_filtered` is neither empty nor
/// parallel to `events`.
pub fn ej_replay(
    level: SimdLevel,
    keys: &mut [u64],
    stamps: &mut [u64],
    ways: usize,
    clock: u64,
    geom: EjGeom,
    events: &[FilterEvent],
    ij_filtered: &[bool],
) -> ReplayOut {
    assert!(ways > 0, "EJ replay needs a nonzero associativity");
    assert_eq!(keys.len(), stamps.len(), "EJ keys and stamps must be parallel");
    assert_eq!(
        keys.len(),
        (geom.set_mask as usize + 1) * ways,
        "EJ arrays must hold sets * ways entries"
    );
    assert!(
        ij_filtered.is_empty() || ij_filtered.len() == events.len(),
        "IJ verdict slice must be empty or parallel to the event chunk"
    );
    dispatch!(level, ej_replay(keys, stamps, ways, clock, geom, events, ij_filtered))
}

/// Replays one [`FilterEvent`] chunk against a Vector-Exclude-Jetty's
/// flat `tags`/`vectors`/`stamps` arrays (the [`ej_replay`] logic with
/// a present-vector lane test in place of the present bit; `geom`
/// additionally peels the lane off the block address).
///
/// Why the AVX2 twin stays: in six interleaved traced `perfbench`
/// paper-all pairs (scale 0.1, 2-vCPU x86_64 VM), standalone VEJ replay
/// (`core.replay_vej_s`) ran +10.6% slower on the scalar kernels
/// (median; AVX2 faster in 6 of 6 pairs), against ±5% noise on the
/// kernel-free gen and substrate layers.
///
/// # Panics
///
/// Panics if `ways` is zero, the arrays' lengths differ from
/// `sets * ways` per `geom`, or `ij_filtered` is neither empty nor
/// parallel to `events`.
pub fn vej_replay(
    level: SimdLevel,
    tags: &mut [u64],
    vectors: &mut [u64],
    stamps: &mut [u64],
    ways: usize,
    clock: u64,
    geom: VejGeom,
    events: &[FilterEvent],
    ij_filtered: &[bool],
) -> ReplayOut {
    assert!(ways > 0, "VEJ replay needs a nonzero associativity");
    assert_eq!(tags.len(), vectors.len(), "VEJ tags and vectors must be parallel");
    assert_eq!(tags.len(), stamps.len(), "VEJ tags and stamps must be parallel");
    assert_eq!(
        tags.len(),
        (geom.set_mask as usize + 1) * ways,
        "VEJ arrays must hold sets * ways entries"
    );
    assert!(
        ij_filtered.is_empty() || ij_filtered.len() == events.len(),
        "IJ verdict slice must be empty or parallel to the event chunk"
    );
    dispatch!(level, vej_replay(tags, vectors, stamps, ways, clock, geom, events, ij_filtered))
}

/// Replays one [`FilterEvent`] chunk against an Include-Jetty's
/// `counts`/`pbits` arrays. Snoops batch-test the packed p-bit bitmap
/// (4 units per AVX2 iteration within each run of consecutive snoops,
/// skipping remaining sub-arrays once every lane is decided absent);
/// allocates/deallocates perform the counter read-modify-writes in
/// event order, accumulating the data-dependent p-bit writes per
/// sub-array into `pbit_writes`. When `verdicts` is `Some`, one verdict
/// per event is appended (`true` only for IJ-filtered snoops), keeping
/// it parallel to `events` for the hybrid's EJ/VEJ pass; standalone
/// callers pass `None` and the kernels skip verdict recording entirely
/// (the counters and `unsafe_at` carry everything a lone IJ needs).
///
/// Why the AVX2 twin stays: in six interleaved traced `perfbench`
/// paper-all pairs (scale 0.1, 2-vCPU x86_64 VM), standalone IJ replay
/// (`core.replay_ij_s`) ran +9.3% slower on the scalar kernels
/// (median; AVX2 faster in 6 of 6 pairs), against ±5% noise on the
/// kernel-free gen and substrate layers.
///
/// # Panics
///
/// Panics unless `sub_arrays >= 1`, `index_bits < 32`, `counts` holds
/// exactly `sub_arrays << index_bits` entries covered by `pbits`, and
/// `pbit_writes` has one slot per sub-array — the bounds that keep the
/// AVX2 gathers in range. Also panics (via the kernels) on counter
/// saturation/underflow, exactly like the eager
/// allocate/deallocate paths.
pub fn ij_replay(
    level: SimdLevel,
    counts: &mut [u16],
    pbits: &mut [u64],
    index_bits: u32,
    sub_arrays: u32,
    skip: u32,
    events: &[FilterEvent],
    verdicts: Option<&mut Vec<bool>>,
    pbit_writes: &mut [u64],
) -> IjReplayOut {
    assert!(sub_arrays >= 1, "IJ needs at least one sub-array");
    assert!(index_bits < 32, "IJ index width out of range");
    assert_eq!(
        counts.len(),
        (sub_arrays as usize) << index_bits,
        "IJ counts must hold sub_arrays << index_bits entries"
    );
    assert!(
        pbits.len() * 64 >= counts.len(),
        "p-bit bitmap too small for {sub_arrays} sub-arrays of 2^{index_bits} entries"
    );
    assert_eq!(pbit_writes.len(), sub_arrays as usize, "one p-bit write counter per sub-array");
    dispatch!(
        level,
        ij_replay(counts, pbits, index_bits, sub_arrays, skip, events, verdicts, pbit_writes)
    )
}

/// Batch-tests IJ's packed p-bit bitmap for a run of snoop unit
/// addresses, appending one `bool` per unit to `absent` (`true` = some
/// selected p-bit is clear, i.e. the unit is guaranteed absent).
/// Sub-array `i` is indexed by bits `[i*skip, i*skip + index_bits)` of
/// the unit; its entry `idx` lives at packed bit `(i << index_bits) |
/// idx` of `pbits`.
///
/// Why the AVX2 twin stays: its only run-path caller is the hybrid's
/// eager-allocation replay, whose time is inside `core.replay_hj_s`
/// (every hybrid, backup ones included), so no traced layer isolates
/// it. That family ran +16.5% slower on the scalar kernels (median of
/// six interleaved traced `perfbench` paper-all pairs, scale 0.1,
/// 2-vCPU x86_64 VM; AVX2 faster in 5 of 6), and `BENCH_baseline.json`
/// records 131 vs 457 Melem/s for `kernels/pbit_test_many_*`.
///
/// # Panics
///
/// Panics unless `sub_arrays >= 1`, `index_bits < 32`, and `pbits`
/// holds all `sub_arrays << index_bits` bits — the bounds that keep the
/// AVX2 gathers in range.
pub fn pbit_test_many(
    level: SimdLevel,
    pbits: &[u64],
    units: &[u64],
    index_bits: u32,
    sub_arrays: u32,
    skip: u32,
    absent: &mut Vec<bool>,
) {
    assert!(sub_arrays >= 1, "IJ needs at least one sub-array");
    assert!(index_bits < 32, "IJ index width out of range");
    assert!(
        pbits.len() * 64 >= (sub_arrays as usize) << index_bits,
        "p-bit bitmap too small for {sub_arrays} sub-arrays of 2^{index_bits} entries"
    );
    dispatch!(level, pbit_test_many(pbits, units, index_bits, sub_arrays, skip, absent))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::MissScope;
    use crate::UnitAddr;

    #[test]
    fn level_tokens_report_their_names() {
        assert_eq!(SimdLevel::SCALAR.name(), "scalar");
        assert!(!SimdLevel::SCALAR.is_avx2());
        if let Some(l) = SimdLevel::avx2() {
            assert_eq!(l.name(), "avx2");
            assert!(l.is_avx2());
        }
    }

    /// Auto-detection is the only dispatch path: the run level is
    /// exactly what the host supports.
    #[test]
    fn auto_and_unset_follow_detection() {
        assert_eq!(active_level(), SimdLevel::avx2().unwrap_or(SimdLevel::SCALAR));
        assert_eq!(active_level().is_avx2(), SimdLevel::avx2().is_some());
    }

    /// A valid event log over 64 units (two units per block):
    /// deallocates only hit cached units, `would_hit` is exactly
    /// "cached", and block scope means no unit of the block is cached.
    fn smoke_events() -> Vec<FilterEvent> {
        let mut cached = [false; 64];
        let mut events = Vec::new();
        for i in 0..400u64 {
            let u = (i * 37 % 64) as usize;
            let unit = UnitAddr::new(u as u64);
            match i % 7 {
                0 if !cached[u] => {
                    cached[u] = true;
                    events.push(FilterEvent::Allocate(unit));
                }
                1 if cached[u] => {
                    cached[u] = false;
                    events.push(FilterEvent::Deallocate(unit));
                }
                _ => {
                    let block = u & !1;
                    let scope = if cached[block] || cached[block + 1] {
                        MissScope::Unit
                    } else {
                        MissScope::Block
                    };
                    events.push(FilterEvent::Snoop { unit, would_hit: cached[u], scope });
                }
            }
        }
        events
    }

    /// Every kernel pair, smoke-compared on both levels when the host
    /// has AVX2 (the exhaustive comparison lives in the
    /// `simd_equivalence` proptest).
    #[test]
    fn avx2_kernels_match_scalar_on_a_smoke_input() {
        let Some(avx2) = SimdLevel::avx2() else {
            eprintln!("note: AVX2 unavailable; kernel smoke comparison skipped");
            return;
        };
        let events = smoke_events();

        // EJ-8x4 and VEJ-4x2-4: a 4-lane window and a sub-4 tail.
        let ej = EjGeom { block_shift: 1, set_mask: 7, set_bits: 3 };
        let vej = VejGeom { block_shift: 1, lane_mask: 3, lane_bits: 2, set_mask: 3, set_bits: 2 };
        let runs = [SimdLevel::SCALAR, avx2].map(|level| {
            let (mut keys, mut stamps) = (vec![u64::MAX; 32], vec![0; 32]);
            let e = ej_replay(level, &mut keys, &mut stamps, 4, 0, ej, &events, &[]);
            let (mut tags, mut vectors, mut vstamps) = (vec![u64::MAX; 8], vec![0; 8], vec![0; 8]);
            let v =
                vej_replay(level, &mut tags, &mut vectors, &mut vstamps, 2, 0, vej, &events, &[]);
            (e, keys, stamps, v, tags, vectors, vstamps)
        });
        assert_eq!(runs[0], runs[1], "EJ/VEJ replay diverged");

        // IJ-3x4x2 with verdicts, then a p-bit batch over its bitmap
        // (13 units: a non-multiple-of-4 tail).
        let units: Vec<u64> = (0..13).map(|i| i * 0x9E37_79B9u64).collect();
        let runs = [SimdLevel::SCALAR, avx2].map(|level| {
            let (mut counts, mut pbits) = (vec![0u16; 32], vec![0u64; 1]);
            let (mut verdicts, mut writes) = (Vec::new(), vec![0u64; 4]);
            let out = ij_replay(
                level,
                &mut counts,
                &mut pbits,
                3,
                4,
                2,
                &events,
                Some(&mut verdicts),
                &mut writes,
            );
            let mut absent = Vec::new();
            pbit_test_many(level, &pbits, &units, 3, 4, 2, &mut absent);
            (out, counts, pbits, verdicts, writes, absent)
        });
        assert_eq!(runs[0], runs[1], "IJ replay or p-bit batch diverged");
    }
}
