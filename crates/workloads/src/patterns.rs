//! Runtime pattern state machines behind each [`SegmentSpec`].
//!
//! Every pattern answers one question: given that CPU `i` issues the next
//! reference of this segment, what address does it touch and is it a store?
//! CPUs are interleaved round-robin by the generator, so per-pattern global
//! counters advance in lockstep with simulated time.

use rand::rngs::SmallRng;
use rand::Rng;

use crate::layout::Layout;
use crate::profile::{RegionLayout, SegmentSpec};
use crate::sample::{draw, threshold};

/// Word alignment for generated addresses (stores/loads of 8 bytes).
const WORD: u64 = 8;
/// The coherence-unit size the substrate snoops at.
const UNIT: u64 = 32;
/// Interleave granularity for [`RegionLayout::PageInterleaved`].
const PAGE: u64 = 4096;

/// Per-CPU regions under either placement policy: each CPU sees a
/// contiguous *logical* region of `bytes`; the mapper turns logical
/// offsets into physical addresses.
#[derive(Clone, Debug)]
struct CpuRegions {
    layout: RegionLayout,
    bytes: u64,
    ncpu: u64,
    /// Arena: one base per CPU. Interleaved: a single shared base.
    bases: Vec<u64>,
    /// Interleaved only, precomputed at construction (`addr` runs once per
    /// generated reference): page colors preserved by the frame
    /// assignment, and the pool's group count. Both are powers of two.
    colors: u64,
    pool_groups: u64,
}

impl CpuRegions {
    fn new(ncpu: usize, bytes: u64, layout: RegionLayout, alloc: &mut Layout) -> Self {
        let ncpu64 = ncpu as u64;
        // Pool rounded up to a power of two so the frame scramble is a
        // bijection (interleaved layout only).
        let pool_pages = (bytes.div_ceil(PAGE) * ncpu64).next_power_of_two();
        // The 64 KB L1 spans 16 pages, so coloring on 16 frames keeps each
        // CPU's L1 set mapping identical to a contiguous allocation —
        // exactly what page-coloring allocators guarantee on physically
        // indexed caches.
        let colors = 16u64.min(pool_pages);
        let bases = match layout {
            RegionLayout::Arena => (0..ncpu).map(|_| alloc.alloc(bytes)).collect(),
            RegionLayout::PageInterleaved => vec![alloc.alloc(pool_pages * PAGE)],
        };
        Self { layout, bytes, ncpu: ncpu64, bases, colors, pool_groups: pool_pages / colors }
    }

    /// Physical address of logical `offset` within `cpu`'s region.
    ///
    /// Interleaved placement models an OS assigning physical frames from a
    /// shared pool with page coloring: the low 4 frame bits follow the
    /// CPU's own page number (preserving L1 behaviour), while colour
    /// *groups* are scrambled across the pool with a bijective
    /// multiplicative hash. This intermixes every CPU's data across the
    /// physical space (so Include-Jetty index slices alias between local
    /// and remote data, as with real block-cyclic shared arrays) without
    /// the cache-set pathologies a naive round-robin interleave creates.
    fn addr(&self, cpu: usize, offset: u64) -> u64 {
        debug_assert!(offset < self.bytes);
        match self.layout {
            RegionLayout::Arena => self.bases[cpu] + offset,
            RegionLayout::PageInterleaved => {
                let page = offset / PAGE;
                let within = offset % PAGE;
                // `colors` is a power of two: mask/shift instead of
                // division (this runs once per generated reference).
                let color_bits = self.colors.trailing_zeros();
                let color = page & (self.colors - 1);
                let group = (page >> color_bits) * self.ncpu + cpu as u64;
                // Odd multiplier mod a power of two is a bijection.
                let group = group.wrapping_mul(0x9E37_79B1) & (self.pool_groups - 1);
                let frame = (group << color_bits) | color;
                self.bases[0] + frame * PAGE + within
            }
        }
    }
}

/// One generated reference: address and store flag.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RefOut {
    /// Physical byte address.
    pub addr: u64,
    /// `true` for a store.
    pub write: bool,
}

/// Runtime state for one segment across all CPUs.
#[derive(Clone, Debug)]
pub enum PatternState {
    /// See [`SegmentSpec::Private`].
    Private(PrivateState),
    /// See [`SegmentSpec::Streaming`].
    Streaming(StreamingState),
    /// See [`SegmentSpec::Shared`].
    Shared(SharedState),
    /// See [`SegmentSpec::ProducerConsumer`].
    ProducerConsumer(PcState),
    /// See [`SegmentSpec::Migratory`].
    Migratory(MigratoryState),
}

impl PatternState {
    /// Instantiates the runtime state for `spec`, allocating its regions.
    pub fn build(spec: &SegmentSpec, ncpu: usize, layout: &mut Layout) -> Self {
        match *spec {
            SegmentSpec::Private {
                hot_bytes,
                warm_bytes,
                cold_bytes,
                p_hot,
                p_warm,
                write_frac,
                layout: placement,
                ..
            } => PatternState::Private(PrivateState::new(
                ncpu, hot_bytes, warm_bytes, cold_bytes, p_hot, p_warm, write_frac, placement,
                layout,
            )),
            SegmentSpec::Streaming {
                bytes, refs_per_unit, write_frac, layout: placement, ..
            } => PatternState::Streaming(StreamingState::new(
                ncpu,
                bytes,
                refs_per_unit,
                write_frac,
                placement,
                layout,
            )),
            SegmentSpec::Shared {
                bytes,
                hot_bytes,
                hot_frac,
                mid_bytes,
                mid_frac,
                write_frac,
                ..
            } => PatternState::Shared(SharedState::new(
                bytes, hot_bytes, hot_frac, mid_bytes, mid_frac, write_frac, layout,
            )),
            SegmentSpec::ProducerConsumer {
                channels,
                channel_bytes,
                consumers,
                refs_per_unit,
                ..
            } => PatternState::ProducerConsumer(PcState::new(
                ncpu,
                channels,
                channel_bytes,
                consumers,
                refs_per_unit,
                layout,
            )),
            SegmentSpec::Migratory { records, record_bytes, hold, .. } => PatternState::Migratory(
                MigratoryState::new(ncpu, records, record_bytes, hold, layout),
            ),
        }
    }

    /// Produces the next reference of this segment for `cpu`.
    pub fn next_ref(&mut self, cpu: usize, rng: &mut SmallRng) -> RefOut {
        match self {
            PatternState::Private(s) => s.next_ref(cpu, rng),
            PatternState::Streaming(s) => s.next_ref(cpu, rng),
            PatternState::Shared(s) => s.next_ref(cpu, rng),
            PatternState::ProducerConsumer(s) => s.next_ref(cpu),
            PatternState::Migratory(s) => s.next_ref(cpu),
        }
    }
}

/// Picks a uniformly random word-aligned offset within `bytes`.
fn random_word(bytes: u64, rng: &mut SmallRng) -> u64 {
    rng.gen_range(0..bytes / WORD) * WORD
}

/// Three-level private working set. See [`SegmentSpec::Private`].
#[derive(Clone, Debug)]
pub struct PrivateState {
    regions: CpuRegions,
    hot_bytes: u64,
    warm_bytes: u64,
    cold_bytes: u64,
    /// [`threshold`]s of `p_hot`, `p_hot + p_warm` and `write_frac`.
    hot_below: u64,
    warm_below: u64,
    write_below: u64,
    cold_pos: Vec<u64>,
}

impl PrivateState {
    #[allow(clippy::too_many_arguments)]
    fn new(
        ncpu: usize,
        hot_bytes: u64,
        warm_bytes: u64,
        cold_bytes: u64,
        p_hot: f64,
        p_warm: f64,
        write_frac: f64,
        placement: RegionLayout,
        layout: &mut Layout,
    ) -> Self {
        let regions = CpuRegions::new(ncpu, hot_bytes + warm_bytes + cold_bytes, placement, layout);
        Self {
            regions,
            hot_bytes,
            warm_bytes,
            cold_bytes,
            hot_below: threshold(p_hot),
            warm_below: threshold(p_hot + p_warm),
            write_below: threshold(write_frac),
            cold_pos: vec![0; ncpu],
        }
    }

    fn next_ref(&mut self, cpu: usize, rng: &mut SmallRng) -> RefOut {
        let r = draw(rng);
        let offset = if r < self.hot_below {
            random_word(self.hot_bytes, rng)
        } else if r < self.warm_below {
            self.hot_bytes + random_word(self.warm_bytes, rng)
        } else {
            let pos = self.cold_pos[cpu];
            // `(pos + UNIT) % cold_bytes.max(UNIT)` as a conditional wrap:
            // pos < bound and UNIT <= bound, so one subtraction suffices
            // (no division on the per-reference path).
            let bound = self.cold_bytes.max(UNIT);
            let mut next = pos + UNIT;
            if next >= bound {
                next -= bound;
            }
            self.cold_pos[cpu] = next;
            self.hot_bytes + self.warm_bytes + pos
        };
        RefOut { addr: self.regions.addr(cpu, offset), write: draw(rng) < self.write_below }
    }
}

/// Sequential scan with bounded per-unit reuse. See
/// [`SegmentSpec::Streaming`].
#[derive(Clone, Debug)]
pub struct StreamingState {
    regions: CpuRegions,
    bytes: u64,
    refs_per_unit: u32,
    /// [`threshold`] of the store fraction.
    write_below: u64,
    pos: Vec<u64>,
    ref_in_unit: Vec<u32>,
}

impl StreamingState {
    fn new(
        ncpu: usize,
        bytes: u64,
        refs_per_unit: u32,
        write_frac: f64,
        placement: RegionLayout,
        layout: &mut Layout,
    ) -> Self {
        assert!(refs_per_unit >= 1, "streaming needs at least one reference per unit");
        let regions = CpuRegions::new(ncpu, bytes, placement, layout);
        Self {
            regions,
            bytes,
            refs_per_unit,
            write_below: threshold(write_frac),
            pos: vec![0; ncpu],
            ref_in_unit: vec![0; ncpu],
        }
    }

    fn next_ref(&mut self, cpu: usize, rng: &mut SmallRng) -> RefOut {
        let k = self.ref_in_unit[cpu];
        let offset = self.pos[cpu] + u64::from(k) * WORD % UNIT;
        self.ref_in_unit[cpu] += 1;
        if self.ref_in_unit[cpu] == self.refs_per_unit {
            self.ref_in_unit[cpu] = 0;
            // Conditional wrap, as in `PrivateState` (pos < bound, step
            // UNIT <= bound).
            let bound = self.bytes.max(UNIT);
            let mut next = self.pos[cpu] + UNIT;
            if next >= bound {
                next -= bound;
            }
            self.pos[cpu] = next;
        }
        RefOut { addr: self.regions.addr(cpu, offset), write: draw(rng) < self.write_below }
    }
}

/// Widely shared read-mostly region with hot/mid/tail popularity bands.
/// See [`SegmentSpec::Shared`].
#[derive(Clone, Debug)]
pub struct SharedState {
    base: u64,
    bytes: u64,
    hot_bytes: u64,
    mid_bytes: u64,
    /// [`threshold`]s of `hot_frac`, `hot_frac + mid_frac` and
    /// `write_frac`.
    hot_below: u64,
    mid_below: u64,
    write_below: u64,
}

impl SharedState {
    fn new(
        bytes: u64,
        hot_bytes: u64,
        hot_frac: f64,
        mid_bytes: u64,
        mid_frac: f64,
        write_frac: f64,
        layout: &mut Layout,
    ) -> Self {
        assert!(hot_bytes + mid_bytes <= bytes, "shared hot+mid bands larger than the region");
        assert!(
            hot_frac >= 0.0 && mid_frac >= 0.0 && hot_frac + mid_frac <= 1.0,
            "shared band fractions out of range"
        );
        Self {
            base: layout.alloc(bytes),
            bytes,
            hot_bytes,
            mid_bytes,
            hot_below: threshold(hot_frac),
            mid_below: threshold(hot_frac + mid_frac),
            write_below: threshold(write_frac),
        }
    }

    fn next_ref(&mut self, _cpu: usize, rng: &mut SmallRng) -> RefOut {
        let r = draw(rng);
        if r < self.hot_below || self.hot_bytes == self.bytes {
            let addr = self.base + random_word(self.hot_bytes, rng);
            RefOut { addr, write: draw(rng) < self.write_below }
        } else if r < self.mid_below && self.mid_bytes >= WORD {
            let addr = self.base + self.hot_bytes + random_word(self.mid_bytes, rng);
            RefOut { addr, write: false }
        } else {
            let tail = self.bytes - self.hot_bytes - self.mid_bytes;
            let addr =
                self.base + self.hot_bytes + self.mid_bytes + random_word(tail.max(WORD), rng);
            RefOut { addr, write: false }
        }
    }
}

/// Producer/consumer channels. See [`SegmentSpec::ProducerConsumer`].
#[derive(Clone, Debug)]
pub struct PcState {
    channels: Vec<PcChannel>,
    /// Channels each CPU produces (indices into `channels`).
    produce: Vec<Vec<usize>>,
    /// `(channel, consumer-slot)` pairs each CPU consumes.
    consume: Vec<Vec<(usize, usize)>>,
    /// Per-CPU round-robin cursor across its roles.
    role_rr: Vec<usize>,
    refs_per_unit: u32,
}

#[derive(Clone, Debug)]
struct PcChannel {
    base: u64,
    units: u64,
    /// Producer write position (unit index) and intra-unit reference count.
    wpos: u64,
    wref: u32,
    /// Per-consumer read positions and intra-unit counts.
    rpos: Vec<u64>,
    rref: Vec<u32>,
}

impl PcState {
    fn new(
        ncpu: usize,
        channels: usize,
        channel_bytes: u64,
        consumers: usize,
        refs_per_unit: u32,
        layout: &mut Layout,
    ) -> Self {
        assert!(channels >= 1, "need at least one channel");
        assert!(consumers >= 1 && consumers < ncpu, "consumers must be 1..ncpu");
        assert!(refs_per_unit >= 1);
        // Channel counts scale with the machine (as real decompositions
        // do) so every CPU gets at least one role on wider SMPs.
        let channels = channels.max(ncpu);
        let units = (channel_bytes / UNIT).max(2);
        let mut chans = Vec::with_capacity(channels);
        let mut produce = vec![Vec::new(); ncpu];
        let mut consume = vec![Vec::new(); ncpu];
        for c in 0..channels {
            let producer = c % ncpu;
            produce[producer].push(c);
            for slot in 0..consumers {
                let consumer = (producer + 1 + slot) % ncpu;
                consume[consumer].push((c, slot));
            }
            // Stagger channel bases by a per-channel page-ish offset:
            // power-of-two channel sizes would otherwise make one CPU's
            // channels alias perfectly in the direct-mapped L1/L2 —
            // an artefact real heap allocators do not exhibit.
            let stagger = (c as u64 % 16) * (4096 + 2 * UNIT);
            let base = layout.alloc(units * UNIT + stagger) + stagger;
            chans.push(PcChannel {
                base,
                units,
                // Start the producer half a channel ahead so consumers
                // always read previously produced data.
                wpos: units / 2,
                wref: 0,
                rpos: vec![0; consumers],
                rref: vec![0; consumers],
            });
        }
        Self { channels: chans, produce, consume, role_rr: vec![0; ncpu], refs_per_unit }
    }

    fn next_ref(&mut self, cpu: usize) -> RefOut {
        let n_roles = self.produce[cpu].len() + self.consume[cpu].len();
        assert!(n_roles > 0, "cpu {cpu} has no producer/consumer role");
        let role = self.role_rr[cpu] % n_roles;
        self.role_rr[cpu] += 1;
        if role < self.produce[cpu].len() {
            let c = self.produce[cpu][role];
            let ch = &mut self.channels[c];
            let addr = ch.base + ch.wpos * UNIT + u64::from(ch.wref) * WORD % UNIT;
            ch.wref += 1;
            if ch.wref == self.refs_per_unit {
                ch.wref = 0;
                ch.wpos += 1;
                if ch.wpos == ch.units {
                    ch.wpos = 0;
                }
            }
            RefOut { addr, write: true }
        } else {
            let (c, slot) = self.consume[cpu][role - self.produce[cpu].len()];
            let ch = &mut self.channels[c];
            let addr = ch.base + ch.rpos[slot] * UNIT + u64::from(ch.rref[slot]) * WORD % UNIT;
            ch.rref[slot] += 1;
            if ch.rref[slot] == self.refs_per_unit {
                ch.rref[slot] = 0;
                ch.rpos[slot] += 1;
                if ch.rpos[slot] == ch.units {
                    ch.rpos[slot] = 0;
                }
            }
            RefOut { addr, write: false }
        }
    }
}

/// Migratory records rotating between owners. See
/// [`SegmentSpec::Migratory`].
#[derive(Clone, Debug)]
pub struct MigratoryState {
    base: u64,
    records: usize,
    record_bytes: u64,
    hold: u64,
    ncpu: usize,
    /// Current ownership epoch; advances every `hold * ncpu` references so
    /// each owner gets `hold` references per rotation. Maintained
    /// incrementally (with `tick_in_epoch`) so the per-reference path pays
    /// a counter and compare instead of a division.
    epoch: u64,
    /// References issued within the current epoch.
    tick_in_epoch: u64,
    /// Records per ownership residue class (`max(records / ncpu, 1)`).
    per_class: usize,
    /// Per-CPU cursor within its owned residue class, stored pre-wrapped
    /// into `0..per_class`.
    cursor: Vec<usize>,
    /// Per-CPU position in the read-read-write visit cycle.
    visit: Vec<u8>,
}

impl MigratoryState {
    fn new(ncpu: usize, records: usize, record_bytes: u64, hold: u64, layout: &mut Layout) -> Self {
        assert!(records >= ncpu, "need at least one record per CPU");
        assert!(hold >= 1);
        let record_bytes = record_bytes.max(WORD);
        let base = layout.alloc(records as u64 * record_bytes);
        Self {
            base,
            records,
            record_bytes,
            hold,
            ncpu,
            epoch: 0,
            tick_in_epoch: 0,
            per_class: (records / ncpu).max(1),
            cursor: vec![0; ncpu],
            visit: vec![0; ncpu],
        }
    }

    fn next_ref(&mut self, cpu: usize) -> RefOut {
        let epoch = self.epoch;
        self.tick_in_epoch += 1;
        if self.tick_in_epoch == self.hold * self.ncpu as u64 {
            self.tick_in_epoch = 0;
            self.epoch += 1;
        }
        // CPU owns records r with (r + epoch) % ncpu == cpu.
        let residue = (cpu as u64 + epoch) % self.ncpu as u64;
        let k = self.cursor[cpu];
        let record = residue as usize + k * self.ncpu;
        let record = record.min(self.records - 1);
        // Visit cycle: read, read, write — then move to the next record.
        let phase = self.visit[cpu];
        let write = phase == 2;
        self.visit[cpu] = (phase + 1) % 3;
        if self.visit[cpu] == 0 {
            self.cursor[cpu] += 1;
            if self.cursor[cpu] == self.per_class {
                self.cursor[cpu] = 0;
            }
        }
        let addr = self.base
            + record as u64 * self.record_bytes
            + u64::from(phase) * WORD % self.record_bytes;
        RefOut { addr, write }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(7)
    }

    fn layout() -> Layout {
        Layout::new()
    }

    #[test]
    fn private_respects_region_boundaries() {
        let mut l = layout();
        let spec = SegmentSpec::Private {
            weight: 1.0,
            hot_bytes: 1024,
            warm_bytes: 2048,
            cold_bytes: 4096,
            p_hot: 0.5,
            p_warm: 0.3,
            write_frac: 0.3,
            layout: RegionLayout::Arena,
        };
        let mut s = PatternState::build(&spec, 2, &mut l);
        let mut r = rng();
        for _ in 0..2000 {
            for cpu in 0..2 {
                let out = s.next_ref(cpu, &mut r);
                assert!(out.addr >= 0x1000_0000);
                assert!(out.addr < 0x1000_0000 + l.footprint());
            }
        }
    }

    #[test]
    fn private_regions_are_disjoint_across_cpus() {
        let mut l = layout();
        let spec = SegmentSpec::Private {
            weight: 1.0,
            hot_bytes: 4096,
            warm_bytes: 4096,
            cold_bytes: 4096,
            p_hot: 0.4,
            p_warm: 0.3,
            write_frac: 0.0,
            layout: RegionLayout::Arena,
        };
        let mut s = PatternState::build(&spec, 2, &mut l);
        let mut r = rng();
        let mut seen0 = Vec::new();
        let mut seen1 = Vec::new();
        for _ in 0..500 {
            seen0.push(s.next_ref(0, &mut r).addr);
            seen1.push(s.next_ref(1, &mut r).addr);
        }
        let max0 = seen0.iter().max().unwrap();
        let min1 = seen1.iter().min().unwrap();
        assert!(max0 < min1, "cpu regions overlap");
    }

    #[test]
    fn streaming_walks_sequentially() {
        let mut l = layout();
        let spec = SegmentSpec::Streaming {
            weight: 1.0,
            bytes: 4096,
            refs_per_unit: 2,
            write_frac: 0.0,
            layout: RegionLayout::Arena,
        };
        let mut s = PatternState::build(&spec, 1, &mut l);
        let mut r = rng();
        let a0 = s.next_ref(0, &mut r).addr;
        let a1 = s.next_ref(0, &mut r).addr;
        let a2 = s.next_ref(0, &mut r).addr;
        // Two refs in unit 0, then unit 1.
        assert_eq!(a0 / UNIT, a1 / UNIT);
        assert_eq!(a2 / UNIT, a0 / UNIT + 1);
    }

    #[test]
    fn streaming_wraps_at_region_end() {
        let mut l = layout();
        let spec = SegmentSpec::Streaming {
            weight: 1.0,
            bytes: 64,
            refs_per_unit: 1,
            write_frac: 0.0,
            layout: RegionLayout::Arena,
        };
        let mut s = PatternState::build(&spec, 1, &mut l);
        let mut r = rng();
        let first = s.next_ref(0, &mut r).addr;
        s.next_ref(0, &mut r);
        let wrapped = s.next_ref(0, &mut r).addr;
        assert_eq!(first, wrapped);
    }

    #[test]
    fn shared_addresses_come_from_one_region_for_all_cpus() {
        let mut l = layout();
        let spec = SegmentSpec::Shared {
            weight: 1.0,
            bytes: 8192,
            hot_bytes: 8192,
            hot_frac: 1.0,
            mid_bytes: 0,
            mid_frac: 0.0,
            write_frac: 0.0,
        };
        let mut s = PatternState::build(&spec, 4, &mut l);
        let mut r = rng();
        for cpu in 0..4 {
            for _ in 0..100 {
                let out = s.next_ref(cpu, &mut r);
                assert!(out.addr >= 0x1000_0000 && out.addr < 0x1000_0000 + 8192);
                assert!(!out.write);
            }
        }
    }

    #[test]
    fn shared_write_frac_generates_stores() {
        let mut l = layout();
        let spec = SegmentSpec::Shared {
            weight: 1.0,
            bytes: 8192,
            hot_bytes: 8192,
            hot_frac: 1.0,
            mid_bytes: 0,
            mid_frac: 0.0,
            write_frac: 1.0,
        };
        let mut s = PatternState::build(&spec, 2, &mut l);
        let mut r = rng();
        assert!(s.next_ref(0, &mut r).write);
    }

    #[test]
    fn pc_producer_writes_consumer_reads() {
        let mut l = layout();
        let spec = SegmentSpec::ProducerConsumer {
            weight: 1.0,
            channels: 2,
            channel_bytes: 1024,
            consumers: 1,
            refs_per_unit: 1,
        };
        let mut s = PatternState::build(&spec, 2, &mut l);
        let mut r = rng();
        // CPU 0 produces channel 0 and consumes channel 1; roles alternate.
        let a = s.next_ref(0, &mut r);
        let b = s.next_ref(0, &mut r);
        assert!(a.write != b.write, "roles must alternate write/read");
    }

    #[test]
    fn pc_consumer_lags_producer() {
        let mut l = layout();
        let spec = SegmentSpec::ProducerConsumer {
            weight: 1.0,
            channels: 2,
            channel_bytes: 320, // 10 units
            consumers: 1,
            refs_per_unit: 1,
        };
        let mut s = PatternState::build(&spec, 2, &mut l);
        let mut r = rng();
        // CPU 0: produce ch0, consume ch1. CPU 1: produce ch1, consume ch0.
        let w0 = s.next_ref(0, &mut r); // produce ch0 at unit 5 (half ahead)
        let w1 = s.next_ref(1, &mut r); // produce ch1 at unit 5
        let c0 = s.next_ref(0, &mut r); // consume ch1 at unit 0
        let c1 = s.next_ref(1, &mut r); // consume ch0 at unit 0
        assert!(w0.write && w1.write);
        assert!(!c0.write && !c1.write);
        // The consumer trails its channel's producer by half the channel.
        assert_eq!(w1.addr - c0.addr, 5 * UNIT);
        assert_eq!(w0.addr - c1.addr, 5 * UNIT);
    }

    #[test]
    fn migratory_visits_read_read_write() {
        let mut l = layout();
        let spec = SegmentSpec::Migratory { weight: 1.0, records: 8, record_bytes: 64, hold: 100 };
        let mut s = PatternState::build(&spec, 4, &mut l);
        let mut r = rng();
        let v1 = s.next_ref(0, &mut r);
        let v2 = s.next_ref(0, &mut r);
        let v3 = s.next_ref(0, &mut r);
        assert!(!v1.write && !v2.write && v3.write);
        // All three refs touch the same record.
        assert_eq!(v1.addr / 64, v3.addr / 64);
    }

    #[test]
    fn migratory_ownership_rotates_with_epochs() {
        let mut l = layout();
        let spec = SegmentSpec::Migratory { weight: 1.0, records: 4, record_bytes: 64, hold: 1 };
        let mut s = PatternState::build(&spec, 2, &mut l);
        let mut r = rng();
        // Epoch 0: cpu0 owns records {0, 2}. After 2 ticks (hold*ncpu),
        // epoch 1: cpu0 owns {1, 3}.
        let e0 = s.next_ref(0, &mut r).addr;
        let _ = s.next_ref(1, &mut r);
        let e1 = s.next_ref(0, &mut r).addr;
        let rec0 = (e0 - 0x1000_0000) / 64;
        let rec1 = (e1 - 0x1000_0000) / 64;
        assert_eq!(rec0 % 2, 0);
        assert_eq!(rec1 % 2, 1);
    }

    #[test]
    #[should_panic(expected = "consumers must be")]
    fn pc_rejects_too_many_consumers() {
        let mut l = layout();
        let spec = SegmentSpec::ProducerConsumer {
            weight: 1.0,
            channels: 1,
            channel_bytes: 64,
            consumers: 4,
            refs_per_unit: 1,
        };
        let _ = PatternState::build(&spec, 4, &mut l);
    }
}
