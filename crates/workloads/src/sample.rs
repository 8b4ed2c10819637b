//! Exact integer twins of the generator's float comparisons.
//!
//! A uniform float draw is `rng.gen::<f64>()`, which is
//! `(next_u64() >> 11) · 2^-53`: a 53-bit integer `m`, scaled exactly.
//! Every per-reference decision the generator makes compares such a
//! draw against a value fixed at construction — a probability `p`, or a
//! cumulative segment weight `w` after scaling by the total weight. Each
//! of those compares is decided by `m` alone, so it can be answered by
//! one integer compare against a threshold computed once:
//!
//! * `m·2^-53 < p` ⇔ `m < p·2^53` ⇔ `m < ⌈p·2^53⌉` (`p·2^53` is exact in
//!   `f64`, and `m` is an integer) — [`threshold`];
//! * `(m·2^-53)·total < w` holds exactly for `m` below the smallest `m`
//!   where it fails, because rounding the product is monotone in `m` —
//!   [`weight_threshold`] binary-searches that `m`.
//!
//! The traces are therefore reference-for-reference the ones the float
//! compares produced.

use rand::rngs::SmallRng;
use rand::RngCore;

/// Draws beyond the largest 53-bit integer: every draw is below it.
const DRAWS: u64 = 1 << 53;

/// One uniform draw as the 53-bit integer `m` behind `rng.gen::<f64>()`
/// (which is `m · 2^-53`); consumes the same single RNG word.
#[inline]
pub(crate) fn draw(rng: &mut SmallRng) -> u64 {
    rng.next_u64() >> 11
}

/// The float `rng.gen::<f64>()` returns for the draw `m`, bit for bit.
fn unit(m: u64) -> f64 {
    m as f64 * (1.0 / DRAWS as f64)
}

/// The threshold `t` with `draw(rng) < t` exactly when
/// `rng.gen::<f64>() < p` (and `rng.gen_bool(p)`) would hold for the same
/// RNG word: `⌈p·2^53⌉`.
///
/// # Panics
///
/// Panics if `p` is not a probability in `[0, 1]` — the check
/// `gen_bool` made on every call, made once here at construction.
pub(crate) fn threshold(p: f64) -> u64 {
    assert!((0.0..=1.0).contains(&p), "probability {p} out of range");
    (p * DRAWS as f64).ceil() as u64
}

/// The smallest draw `m` whose pick `unit(m) · total` reaches `w`, or
/// `2^53` if no draw does: `unit(m) · total < w` exactly when
/// `m < weight_threshold(total, w)`, because the rounded product is
/// monotone in `m`.
pub(crate) fn weight_threshold(total: f64, w: f64) -> u64 {
    let (mut lo, mut hi) = (0, DRAWS);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if unit(mid) * total >= w {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps;
    use rand::{Rng, SeedableRng};

    /// The draws either side of `t`, clamped to the draw range.
    fn around(t: u64) -> impl Iterator<Item = u64> {
        [0, 1, t.saturating_sub(2), t.saturating_sub(1), t, t + 1, t + 2, DRAWS - 1]
            .into_iter()
            .filter(|&m| m < DRAWS)
    }

    #[test]
    fn draw_is_the_integer_behind_the_float_draw() {
        let mut a = SmallRng::seed_from_u64(5);
        let mut b = a.clone();
        for _ in 0..1000 {
            assert_eq!(unit(draw(&mut a)), b.gen::<f64>());
        }
    }

    #[test]
    fn threshold_matches_the_float_compare() {
        // 0 and 1, values whose p·2^53 is an integer (0.5, 0.25, 2^-53,
        // 1 - 2^-53), and values where it is not (0.3, 0.05, 1/3).
        let ps =
            [0.0, 1.0, 0.5, 0.25, 1.0 / DRAWS as f64, 1.0 - 2f64.powi(-53), 0.3, 0.05, 1.0 / 3.0];
        for p in ps {
            let t = threshold(p);
            assert!(t <= DRAWS, "p = {p}");
            for m in around(t) {
                assert_eq!(m < t, unit(m) < p, "p = {p}, m = {m}, t = {t}");
            }
        }
        assert_eq!(threshold(0.0), 0, "p = 0 never fires");
        assert_eq!(threshold(1.0), DRAWS, "p = 1 always fires");
        assert_eq!(threshold(0.5), DRAWS / 2, "an exact p·2^53 is its own threshold");
        assert_eq!(threshold(0.3), (0.3 * DRAWS as f64) as u64 + 1, "an inexact one rounds up");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn threshold_rejects_a_non_probability() {
        threshold(1.5);
    }

    #[test]
    fn weight_thresholds_split_the_draws_where_the_float_pick_does() {
        let mut cases = vec![(1.0, 0.5), (3.0, 1.0), (3.0, 3.0), (0.7, 0.1), (10.0, 1e-9)];
        for profile in apps::all() {
            let mut acc = 0.0;
            let cumulative: Vec<f64> = profile
                .segments
                .iter()
                .map(|seg| {
                    acc += seg.weight();
                    acc
                })
                .collect();
            cases.extend(cumulative.iter().map(|&w| (acc, w)));
        }
        for (total, w) in cases {
            let t = weight_threshold(total, w);
            for m in around(t) {
                assert_eq!(m < t, unit(m) * total < w, "total {total}, w {w}, m {m}, t {t}");
            }
        }
        assert_eq!(weight_threshold(1.0, 2.0), DRAWS, "an unreachable weight admits every draw");
    }
}
