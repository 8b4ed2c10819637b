//! SIMD kernel microbenchmarks: kernel pairs from `jetty_core::kernels`
//! pinned side by side at both dispatch levels, so the AVX2 path's
//! advantage (or a regression that erases it) is a number in CI output
//! rather than a guess. On hosts without AVX2 only the `_scalar` series
//! runs.
//!
//! * `ej_replay_*` — the in-place chunk replay the filters feed
//!   (find + LRU stamp + record/victim bookkeeping per snoop);
//! * `pbit_test_many_*` — IJ's batched packed-bitmap probe.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use jetty_core::kernels::{self, EjGeom, SimdLevel};
use jetty_core::{FilterEvent, MissScope, UnitAddr};

/// Deterministic xorshift stream of unit addresses (35-bit space), the
/// same stream the `hotpath` group uses.
fn addresses(n: usize) -> Vec<u64> {
    let mut x = 0x243F_6A88_85A3_08D3u64;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x & 0x7_FFFF_FFFF
        })
        .collect()
}

/// The dispatch levels available on this host, labelled for bench names.
fn levels() -> Vec<(&'static str, SimdLevel)> {
    let mut levels = vec![("scalar", SimdLevel::SCALAR)];
    if let Some(avx2) = SimdLevel::avx2() {
        levels.push(("avx2", avx2));
    }
    levels
}

/// An EJ-32x4-shaped flat key array, half the ways populated and the
/// rest left at the sentinel.
fn ej_fixture(addrs: &[u64]) -> Vec<u64> {
    const SETS: u64 = 32;
    const WAYS: usize = 4;
    let mut keys = vec![u64::MAX; SETS as usize * WAYS];
    for (i, &a) in addrs.iter().take(keys.len() / 2).enumerate() {
        let set = (a % SETS) as usize;
        let tag = a / SETS;
        keys[set * WAYS + i % WAYS] = tag << 1 | 1;
    }
    keys
}

fn ej_replay_benches(c: &mut Criterion) {
    let addrs = addresses(1 << 13);
    let keys = ej_fixture(&addrs);
    // Geometry matching the fixture: block == unit, set = addr % 32,
    // tag = addr / 32 — exactly what `ej_fixture` populated.
    let geom = EjGeom { block_shift: 0, set_mask: 31, set_bits: 5 };
    let snoops: Vec<FilterEvent> = addrs
        .iter()
        .map(|&a| FilterEvent::Snoop {
            unit: UnitAddr::new(a),
            would_hit: false,
            scope: MissScope::Block,
        })
        .collect();
    let mut group = c.benchmark_group("kernels");
    group.sample_size(20);
    group.throughput(Throughput::Elements(snoops.len() as u64));
    for (name, level) in levels() {
        // Steady-state: the arrays persist across iterations, as one
        // filter's do across consecutive chunks.
        let mut keys = keys.clone();
        let mut stamps = vec![0u64; keys.len()];
        let mut clock = 0u64;
        group.bench_function(format!("ej_replay_{name}"), |b| {
            b.iter(|| {
                let out =
                    kernels::ej_replay(level, &mut keys, &mut stamps, 4, clock, geom, &snoops, &[]);
                clock = out.clock;
                out.filtered
            })
        });
    }
    group.finish();
}

fn pbit_test_many_benches(c: &mut Criterion) {
    // IJ-10x4x7 geometry: 4 sub-arrays of 1024 entries, half the bits
    // set so both outcomes occur.
    let units = addresses(1 << 13);
    let pbits: Vec<u64> =
        (0..(4usize << 10) / 64).map(|i| 0x5555_5555_5555_5555u64.rotate_left(i as u32)).collect();
    let mut group = c.benchmark_group("kernels");
    group.sample_size(20);
    group.throughput(Throughput::Elements(units.len() as u64));
    for (name, level) in levels() {
        let mut absent = Vec::with_capacity(units.len());
        group.bench_function(format!("pbit_test_many_{name}"), |b| {
            b.iter(|| {
                absent.clear();
                kernels::pbit_test_many(level, &pbits, &units, 10, 4, 7, &mut absent);
                absent.iter().filter(|&&a| a).count()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, ej_replay_benches, pbit_test_many_benches);
criterion_main!(benches);
