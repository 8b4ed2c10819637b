//! Hot-path microbenchmarks: the three structures the snoop inner loop
//! lives in, pinned so layout regressions (re-introducing per-block heap
//! indirection, per-fill allocation, or SipHash version maps) show up as
//! throughput drops instead of silent wall-clock creep.
//!
//! * `l2_snoop_probe` / `l2_state` — the per-snoop tag+state lookup over
//!   the flat SoA arrays;
//! * `l2_fill_evict` — conflict-evicting fills through one reusable
//!   scratch buffer (the allocation-free steady state: throughput here is
//!   allocation-sensitive, since every fill would otherwise heap-allocate
//!   its eviction list);
//! * `version_map_*` — the checker's u64→u64 version map, the vendored
//!   open-addressed `FastMap` against `std::collections::HashMap`
//!   (SipHash) on an identical key stream.

use std::collections::HashMap;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use jetty_core::{AddrSpace, FilterBank, FilterEvent, FilterSpec, MissScope, UnitAddr};
use jetty_sim::{FastMap, L2Cache, L2Config, Moesi, System};
use jetty_workloads::{apps, TraceGen};

/// Deterministic xorshift stream of unit addresses (35-bit space).
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

/// A paper-sized L2 with a realistic resident population.
fn populated_l2(addrs: &[u64]) -> L2Cache {
    let mut l2 = L2Cache::new(L2Config::default());
    let mut scratch = Vec::new();
    for &a in &addrs[..addrs.len() / 2] {
        let unit = UnitAddr::new(a);
        if !l2.state(unit).is_valid() {
            l2.fill_into(unit, Moesi::Exclusive, 1, &mut scratch);
        }
    }
    l2
}

fn l2_probe_benches(c: &mut Criterion) {
    let addrs = addresses(1 << 16);
    let l2 = populated_l2(&addrs);
    let mut group = c.benchmark_group("hotpath");
    group.sample_size(20);
    group.throughput(Throughput::Elements(addrs.len() as u64));

    group.bench_function("l2_snoop_probe", |b| {
        b.iter(|| {
            let mut hits = 0u64;
            for &a in &addrs {
                let (state, block) = l2.snoop_probe(UnitAddr::new(a));
                hits += u64::from(state.is_valid()) + u64::from(block);
            }
            hits
        })
    });

    group.bench_function("l2_state", |b| {
        b.iter(|| {
            let mut hits = 0u64;
            for &a in &addrs {
                hits += u64::from(l2.state(UnitAddr::new(a)).is_valid());
            }
            hits
        })
    });

    // Conflict-heavy fill/evict churn: every fill displaces a resident
    // block through the shared scratch buffer. Allocation-sensitive — a
    // per-fill Vec would show up directly in this number.
    group.bench_function("l2_fill_evict", |b| {
        b.iter_batched_ref(
            || (L2Cache::new(L2Config::new(1 << 16, 64, 2)), Vec::new()),
            |(l2, scratch)| {
                let mut evicted = 0u64;
                for &a in &addrs {
                    let unit = UnitAddr::new(a);
                    if !l2.state(unit).is_valid() {
                        l2.fill_into(unit, Moesi::Modified, 1, scratch);
                        evicted += scratch.len() as u64;
                    }
                }
                evicted
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn version_map_benches(c: &mut Criterion) {
    let addrs = addresses(1 << 15);
    let mut group = c.benchmark_group("hotpath");
    group.sample_size(20);
    // Each element is one insert plus two lookups (the snoop path probes
    // roughly twice per update).
    group.throughput(Throughput::Elements(addrs.len() as u64));

    group.bench_function("version_map_fastmap", |b| {
        b.iter_batched_ref(
            FastMap::new,
            |map| {
                let mut sum = 0u64;
                for (v, &a) in addrs.iter().enumerate() {
                    map.insert(a, v as u64);
                    sum += map.get(a).unwrap_or(0);
                    sum += map.get(a ^ 1).unwrap_or(0);
                }
                sum
            },
            BatchSize::SmallInput,
        )
    });

    group.bench_function("version_map_std_hashmap", |b| {
        b.iter_batched_ref(
            HashMap::<u64, u64>::new,
            |map| {
                let mut sum = 0u64;
                for (v, &a) in addrs.iter().enumerate() {
                    map.insert(a, v as u64);
                    sum += map.get(&a).copied().unwrap_or(0);
                    sum += map.get(&(a ^ 1)).copied().unwrap_or(0);
                }
                sum
            },
            BatchSize::SmallInput,
        )
    });

    // The unchecked-run fast path: the version maps stay empty, and every
    // bus fill still asks them for a version. An empty FastMap answers
    // without touching table storage.
    group.bench_function("version_map_empty_get", |b| {
        let map = FastMap::new();
        b.iter(|| {
            let mut sum = 0u64;
            for &a in &addrs {
                sum += map.get(a).unwrap_or(0);
            }
            sum
        })
    });
    group.finish();
}

/// A chunk-sized filter-event stream shaped like real bus traffic: mostly
/// snoops (all genuine misses, the taught case), with an allocate and a
/// deallocate every eight events to keep the deferred-rebuild paths hot.
fn event_batch(addrs: &[u64]) -> Vec<FilterEvent> {
    addrs
        .iter()
        .enumerate()
        .map(|(i, &a)| {
            match i % 8 {
                6 => FilterEvent::Allocate(UnitAddr::new(a)),
                // Deallocate exactly what the previous event allocated:
                // include filters assert alloc/dealloc balance per entry.
                7 => FilterEvent::Deallocate(UnitAddr::new(addrs[i - 1])),
                _ => FilterEvent::Snoop {
                    unit: UnitAddr::new(a),
                    would_hit: false,
                    scope: MissScope::Block,
                },
            }
        })
        .collect()
}

fn batch_probe_benches(c: &mut Criterion) {
    let addrs = addresses(System::CHUNK_LEN); // one chunk's worth of events
    let events = event_batch(&addrs);
    let mut group = c.benchmark_group("hotpath");
    group.sample_size(20);
    group.throughput(Throughput::Elements(events.len() as u64));

    // One `FilterBank::apply_batch` replay through a one-member bank of
    // each paper filter family: the chunk-flush inner loop `run_chunk`
    // defers to. Steady-state by design — the
    // filter's arrays stay resident across iterations, exactly as they do
    // across consecutive chunks of one application.
    let cases = [
        ("batch_probe_exclude", FilterSpec::exclude(32, 4)),
        ("batch_probe_include", FilterSpec::include(10, 4, 7)),
        ("batch_probe_hybrid", FilterSpec::hybrid_vector(10, 4, 7, 32, 4, 4)),
    ];
    for (name, spec) in cases {
        let mut bank = FilterBank::new(&[spec], AddrSpace::default());
        group.bench_function(name, |b| {
            b.iter(|| {
                bank.apply_batch(&events, 1);
            })
        });
    }
    group.finish();
}

fn trace_chunk_benches(c: &mut Criterion) {
    let profile = apps::barnes();
    let scale = 0.005;
    let total = TraceGen::new(&profile, 4, scale).len();
    let mut group = c.benchmark_group("hotpath");
    group.sample_size(20);
    group.throughput(Throughput::Elements(total));

    // Streamed generation into one reusable chunk buffer: the producer
    // side of the chunked runner loop.
    group.bench_function("trace_fill_chunk", |b| {
        b.iter_batched_ref(
            || (TraceGen::new(&profile, 4, scale), Vec::with_capacity(8192)),
            |(generator, buf)| {
                let mut refs = 0u64;
                while generator.fill_chunk(buf, 8192) {
                    refs += buf.len() as u64;
                }
                refs
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(
    benches,
    l2_probe_benches,
    version_map_benches,
    batch_probe_benches,
    trace_chunk_benches
);
criterion_main!(benches);
