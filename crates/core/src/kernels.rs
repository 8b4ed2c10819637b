//! The set scans every exclude-side replay step shares, and the host's
//! SIMD level.
//!
//! A run replays each node's event chunk through its
//! [`FilterBank`](crate::FilterBank) **event-major**: each event steps
//! every shared IJ state once, then every member, through one fused step
//! per filter kind (ARCHITECTURE §2a.2). An EJ/VEJ step is a single set
//! lookup that probes, stamps the LRU clock and records in one pass; the
//! two scans it is built from live here. Both are branch-free over the
//! ways of one set, so when a caller monomorphises on the associativity
//! (the exclude step, EJ and VEJ alike, specialises 2 and 4 ways, with a
//! generic fallback) the compiler unrolls them into straight-line
//! compare-and-select code.
//!
//! [`SimdLevel`] and [`active_level`] name the host's vector capability
//! as detected at run time (`avx2` or `scalar`). The replay steps are
//! portable Rust with no intrinsics, so the level selects no code path:
//! it is a host fact that `--timings` (the `kernel=` tag) and perfbench's
//! facts line record next to their timings, so numbers from different
//! hosts can be told apart.

/// The host's vector capability, as detected at run time.
///
/// [`SimdLevel::SCALAR`] always exists; an AVX2 level exists only via
/// [`SimdLevel::avx2`], which detects the feature first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimdLevel(Level);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Level {
    Scalar,
    Avx2,
}

impl SimdLevel {
    /// No vector extension assumed.
    pub const SCALAR: SimdLevel = SimdLevel(Level::Scalar);

    /// The AVX2 level, if this host supports it.
    pub fn avx2() -> Option<SimdLevel> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Some(SimdLevel(Level::Avx2));
        }
        None
    }

    /// `true` for the AVX2 level.
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

/// This host's level: AVX2 when the host supports it, scalar otherwise.
/// `std` caches the feature detection, so a call is one atomic load.
pub fn active_level() -> SimdLevel {
    SimdLevel::avx2().unwrap_or(SimdLevel::SCALAR)
}

/// Lowest way of one set whose word `matches`. Every way is compared and
/// the match selected with a conditional move: the matching way's position
/// is data-dependent, so an early-exit scan would mispredict on nearly
/// every hit. Tags are unique within a set (records insert only after a
/// failed find), so the scan order cannot change the answer.
#[inline(always)]
pub(crate) fn find_way(set: &[u64], matches: impl Fn(u64) -> bool) -> Option<usize> {
    let mut found = usize::MAX;
    for (way, &word) in set.iter().enumerate().rev() {
        if matches(word) {
            found = way;
        }
    }
    (found != usize::MAX).then_some(found)
}

/// First least-recently-stamped way of one set (the first minimum, as
/// `Iterator::min_by_key` picks it): the LRU victim of an insert.
#[inline(always)]
pub(crate) fn lru_victim(stamps: &[u64]) -> usize {
    let mut victim = 0;
    let mut oldest = stamps[0];
    for (way, &stamp) in stamps.iter().enumerate().skip(1) {
        if stamp < oldest {
            oldest = stamp;
            victim = way;
        }
    }
    victim
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_tokens_report_their_names() {
        assert_eq!(SimdLevel::SCALAR.name(), "scalar");
        assert!(!SimdLevel::SCALAR.is_avx2());
        if let Some(l) = SimdLevel::avx2() {
            assert_eq!(l.name(), "avx2");
            assert!(l.is_avx2());
        }
    }

    /// Detection is the only source of the level: it is exactly what
    /// the host supports.
    #[test]
    fn auto_and_unset_follow_detection() {
        assert_eq!(active_level(), SimdLevel::avx2().unwrap_or(SimdLevel::SCALAR));
        assert_eq!(active_level().is_avx2(), SimdLevel::avx2().is_some());
    }

    #[test]
    fn set_scans_pick_the_lowest_match_and_the_first_minimum() {
        assert_eq!(find_way(&[7, 3, 3, 9], |w| w == 3), Some(1));
        assert_eq!(find_way(&[7, 3], |w| w == 4), None);
        assert_eq!(lru_victim(&[5, 2, 9, 2]), 1);
        assert_eq!(lru_victim(&[0]), 0);
    }
}
