//! The host's SIMD level.
//!
//! [`SimdLevel`] and [`active_level`] name the host's vector capability
//! as detected at run time (`avx2` or `scalar`). The replay steps are
//! portable Rust with no intrinsics, so the level selects no code path:
//! it is a host fact that `--timings` (the `kernel=` tag) and perfbench's
//! facts line record next to their timings, so numbers from different
//! hosts can be told apart. The set scans the exclude step is built from
//! live with it, in the exclude module.

/// The host's vector capability, as detected at run time by
/// [`active_level`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimdLevel {
    avx2: bool,
}

impl SimdLevel {
    /// Stable lowercase name (`"scalar"` / `"avx2"`) used by the
    /// `--timings` `kernel=` tag.
    pub fn name(self) -> &'static str {
        if self.avx2 {
            "avx2"
        } else {
            "scalar"
        }
    }
}

/// This host's level: AVX2 when the host supports it, scalar otherwise.
/// `std` caches the feature detection, so a call is one atomic load.
pub fn active_level() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    let avx2 = std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    let avx2 = false;
    SimdLevel { avx2 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_tokens_report_their_names() {
        assert_eq!(SimdLevel { avx2: false }.name(), "scalar");
        assert_eq!(SimdLevel { avx2: true }.name(), "avx2");
    }

    /// Detection is the only source of the level: it is exactly what
    /// the host supports.
    #[test]
    fn auto_and_unset_follow_detection() {
        #[cfg(target_arch = "x86_64")]
        assert_eq!(active_level().name() == "avx2", std::arch::is_x86_feature_detected!("avx2"));
        #[cfg(not(target_arch = "x86_64"))]
        assert_eq!(active_level().name(), "scalar");
    }
}
