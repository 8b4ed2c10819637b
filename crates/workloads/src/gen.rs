//! The trace generator: turns an [`AppProfile`] into a deterministic
//! interleaved [`MemRef`] stream.

use jetty_sim::{MemRef, Op};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::layout::Layout;
use crate::patterns::PatternState;
use crate::profile::AppProfile;

/// Iterator producing an application's memory-reference trace.
///
/// CPUs issue references round-robin (the atomic-bus substrate serialises
/// accesses anyway); each CPU samples a segment per reference according to
/// the profile's weights, and the segment's pattern produces the address.
/// Two generators built from the same profile, CPU count and scale yield
/// identical traces.
///
/// # Examples
///
/// ```
/// use jetty_workloads::{apps, TraceGen};
///
/// let profile = apps::barnes();
/// let mut gen = TraceGen::new(&profile, 4, 0.01);
/// let first = gen.next().unwrap();
/// assert_eq!(first.cpu, 0);
/// assert!(gen.len() > 0);
/// ```
///
/// `TraceGen` is `Send` (owned RNGs and pattern state, nothing shared):
/// the parallel experiment engine builds one generator per job and moves
/// it onto a worker thread together with the system it feeds.
#[derive(Clone, Debug)]
pub struct TraceGen {
    rngs: Vec<SmallRng>,
    states: Vec<PatternState>,
    cumulative_weights: Vec<f64>,
    total_weight: f64,
    remaining: u64,
    total: u64,
    ncpu: usize,
    next_cpu: usize,
    footprint: u64,
}

// Compile-time audit: trace generation must stay movable to worker
// threads for the parallel experiment engine.
const _: fn() = assert_send::<TraceGen>;
fn assert_send<T: Send>() {}

impl TraceGen {
    /// Builds a generator for `profile` on an `ncpu`-way SMP, scaling the
    /// reference count by `scale`.
    ///
    /// # Panics
    ///
    /// Panics if the profile fails validation, `ncpu < 2`, or `scale` is
    /// not positive.
    pub fn new(profile: &AppProfile, ncpu: usize, scale: f64) -> Self {
        profile.validate();
        assert!(ncpu >= 2, "an SMP workload needs at least two CPUs");
        assert!(scale > 0.0, "scale must be positive");
        let mut layout = Layout::new();
        let states: Vec<PatternState> = profile
            .segments
            .iter()
            .map(|seg| PatternState::build(seg, ncpu, &mut layout))
            .collect();
        let mut acc = 0.0;
        let cumulative_weights: Vec<f64> = profile
            .segments
            .iter()
            .map(|seg| {
                acc += seg.weight();
                acc
            })
            .collect();
        let rngs = (0..ncpu)
            .map(|cpu| {
                SmallRng::seed_from_u64(
                    profile.seed ^ (0x9E37_79B9_7F4A_7C15u64).wrapping_mul(cpu as u64 + 1),
                )
            })
            .collect();
        let total = Self::len_for(profile, ncpu, scale);
        Self {
            rngs,
            states,
            cumulative_weights,
            total_weight: acc,
            remaining: total,
            total,
            ncpu,
            next_cpu: 0,
            footprint: layout.footprint(),
        }
    }

    /// References this generator will produce in total.
    ///
    /// This is the *whole-trace* length fixed at construction — it does
    /// not decrease as the iterator is consumed. Beware the shadowing
    /// footgun: this inherent method hides
    /// [`ExactSizeIterator::len`], which reports *remaining* items;
    /// `gen.len()` and `ExactSizeIterator::len(&gen)` therefore disagree
    /// once iteration has started. Like [`TraceGen::footprint`], read it
    /// off the same generator you then run — never build a second
    /// generator just to ask for the length (the runner's `run_app`
    /// debug-asserts this single-pass discipline).
    pub fn len(&self) -> u64 {
        self.total
    }

    /// The [`TraceGen::len`] a generator for `profile` on an `ncpu`-way
    /// SMP at `scale` would have, without building it.
    pub fn len_for(profile: &AppProfile, ncpu: usize, scale: f64) -> u64 {
        ((profile.accesses as f64 * scale).round() as u64).max(ncpu as u64)
    }

    /// `true` when the trace is empty (never the case for valid profiles).
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The workload's allocated memory footprint in bytes (the paper's
    /// "MA" column). Fixed at construction; valid to read at any point,
    /// before or after iteration.
    pub fn footprint(&self) -> u64 {
        self.footprint
    }

    /// Refills `buf` with up to `max` references, reusing its allocation.
    ///
    /// This is the streamed twin of the `Iterator` implementation — it
    /// draws from the same state, so a trace produced by repeated
    /// `fill_chunk` calls is reference-for-reference identical to one
    /// produced by `next()`, and the two can even be interleaved. Returns
    /// `false` once the trace is exhausted and `buf` came back empty.
    ///
    /// # Examples
    ///
    /// ```
    /// use jetty_workloads::{apps, TraceGen};
    ///
    /// let profile = apps::barnes();
    /// let mut gen = TraceGen::new(&profile, 4, 0.001);
    /// let mut buf = Vec::new();
    /// let mut streamed = 0;
    /// while gen.fill_chunk(&mut buf, 4096) {
    ///     streamed += buf.len() as u64;
    /// }
    /// assert_eq!(streamed, gen.len());
    /// ```
    pub fn fill_chunk(&mut self, buf: &mut Vec<MemRef>, max: usize) -> bool {
        buf.clear();
        while buf.len() < max {
            match self.next() {
                Some(r) => buf.push(r),
                None => break,
            }
        }
        !buf.is_empty()
    }
}

impl Iterator for TraceGen {
    type Item = MemRef;

    fn next(&mut self) -> Option<MemRef> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let cpu = self.next_cpu;
        // Branch instead of `%`: the round-robin advance runs once per
        // generated reference.
        self.next_cpu += 1;
        if self.next_cpu == self.ncpu {
            self.next_cpu = 0;
        }
        let rng = &mut self.rngs[cpu];
        let pick: f64 = rng.gen::<f64>() * self.total_weight;
        let seg =
            self.cumulative_weights.iter().position(|&w| pick < w).unwrap_or(self.states.len() - 1);
        let out = self.states[seg].next_ref(cpu, rng);
        let op = if out.write { Op::Write } else { Op::Read };
        Some(MemRef { cpu, op, addr: out.addr })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.remaining as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for TraceGen {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps;

    #[test]
    fn deterministic_across_builds() {
        let p = apps::barnes();
        let a: Vec<MemRef> = TraceGen::new(&p, 4, 0.002).collect();
        let b: Vec<MemRef> = TraceGen::new(&p, 4, 0.002).collect();
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn cpus_interleave_round_robin() {
        let p = apps::fft();
        let refs: Vec<MemRef> = TraceGen::new(&p, 4, 0.001).collect();
        for (i, r) in refs.iter().enumerate() {
            assert_eq!(r.cpu, i % 4);
        }
    }

    #[test]
    fn scale_controls_length() {
        let p = apps::lu();
        let short = TraceGen::new(&p, 4, 0.001);
        let long = TraceGen::new(&p, 4, 0.002);
        assert_eq!(short.len() * 2, long.len());
        assert_eq!(short.count() as u64, TraceGen::new(&p, 4, 0.001).len());
    }

    #[test]
    fn footprint_is_nonzero_and_reported() {
        let p = apps::radix();
        let generator = TraceGen::new(&p, 4, 0.001);
        assert!(generator.footprint() > 1024 * 1024);
    }

    #[test]
    fn traces_contain_reads_and_writes() {
        let p = apps::ocean();
        let refs: Vec<MemRef> = TraceGen::new(&p, 4, 0.01).collect();
        let writes = refs.iter().filter(|r| r.op.is_write()).count();
        let reads = refs.len() - writes;
        assert!(writes > 0, "no stores generated");
        assert!(reads > writes, "reads should dominate");
    }

    #[test]
    fn different_seeds_give_different_traces() {
        let mut a = apps::barnes();
        let mut b = apps::barnes();
        a.seed = 1;
        b.seed = 2;
        let ta: Vec<MemRef> = TraceGen::new(&a, 4, 0.001).collect();
        let tb: Vec<MemRef> = TraceGen::new(&b, 4, 0.001).collect();
        assert_ne!(ta, tb);
    }

    #[test]
    fn size_hint_is_exact() {
        let p = apps::fmm();
        let mut generator = TraceGen::new(&p, 4, 0.001);
        let total = generator.len();
        assert_eq!(generator.size_hint(), (total as usize, Some(total as usize)));
        generator.next();
        assert_eq!(generator.size_hint().0 as u64, total - 1);
    }

    #[test]
    #[should_panic(expected = "at least two CPUs")]
    fn rejects_uniprocessor() {
        let _ = TraceGen::new(&apps::barnes(), 1, 1.0);
    }

    #[test]
    fn fill_chunk_matches_iterator_reference_for_reference() {
        let p = apps::barnes();
        let iterated: Vec<MemRef> = TraceGen::new(&p, 4, 0.002).collect();
        let mut generator = TraceGen::new(&p, 4, 0.002);
        let mut streamed = Vec::new();
        let mut buf = Vec::new();
        // A chunk size that does not divide the trace length, so the last
        // chunk is partial.
        while generator.fill_chunk(&mut buf, 999) {
            streamed.extend_from_slice(&buf);
        }
        assert_eq!(streamed, iterated);
        assert!(!generator.fill_chunk(&mut buf, 999), "exhausted generator must stay empty");
        assert!(buf.is_empty());
    }

    #[test]
    fn eight_way_generation_works() {
        let p = apps::unstructured();
        let refs: Vec<MemRef> = TraceGen::new(&p, 8, 0.001).collect();
        assert!(refs.iter().any(|r| r.cpu == 7));
    }
}
