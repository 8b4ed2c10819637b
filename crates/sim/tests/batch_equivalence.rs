//! Chunk-boundary equivalence: every [`System`] logs filter events and
//! replays them at a flush — once per chunk in [`System::run_chunk`],
//! after every access in [`System::apply`]. Where the flushes fall must be
//! *invisible*: a chunked run and a reference-at-a-time run over the same
//! trace must agree on every observable — protocol statistics, L2 states,
//! and every filter's probes/filtered/would-miss counts and per-node array
//! activity. This is the property the golden-output byte-identity checks
//! sample at three scales; here proptest hammers it with arbitrary traces,
//! arbitrary chunk boundaries, both check levels, and every pluggable
//! protocol.

mod common;

use common::{assert_same_observables, ref_strategy, tiny_config};
use jetty_core::FilterSpec;
use jetty_sim::{CheckLevel, MemRef, Op, ProtocolKind, System};
use proptest::prelude::*;

/// Both check levels: `CheckLevel::Full` runs the same logged replay,
/// with the per-access checkers watching the substrate in between.
fn check_level() -> impl Strategy<Value = CheckLevel> {
    any::<bool>().prop_map(|full| if full { CheckLevel::Full } else { CheckLevel::Off })
}

/// Runs `refs` through a chunked system (chunks of `chunk_len`) and a
/// per-access one, then asserts every observable matches.
fn assert_batched_matches_scalar(
    refs: &[MemRef],
    chunk_len: usize,
    protocol: ProtocolKind,
    check: CheckLevel,
    specs: &[FilterSpec],
    units: u64,
) {
    let mut batched = System::new(tiny_config(4, protocol, check), specs);
    let mut scalar = System::new(tiny_config(4, protocol, check), specs);
    for chunk in refs.chunks(chunk_len) {
        batched.run_chunk(chunk);
    }
    for &r in refs {
        scalar.apply(r);
    }
    assert_same_observables(&batched, &scalar, units, &format!("{protocol} {check:?}"));
    batched.verify_filter_consistency();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// The full paper bank (include, exclude, vector-exclude and hybrid
    /// variants all at once) over contended traffic: chunked replay must
    /// be observation-identical for every protocol, both check levels and
    /// any chunk boundary, including chunk lengths that leave a partial
    /// final chunk.
    #[test]
    fn paper_bank_batched_equals_scalar(
        refs in prop::collection::vec(ref_strategy(4, 64), 1..400),
        chunk_len in 1usize..96,
        check in check_level(),
    ) {
        for protocol in ProtocolKind::ALL {
            let bank = FilterSpec::paper_bank();
            assert_batched_matches_scalar(&refs, chunk_len, protocol, check, &bank, 64);
        }
    }

    /// Sparse traffic through a hybrid filter: exercises eager exclude
    /// allocation inside the replay (the one filter whose probe mutates
    /// state) plus eviction-driven deallocate events.
    #[test]
    fn hybrid_batched_equals_scalar_under_eviction_pressure(
        refs in prop::collection::vec(ref_strategy(4, 4096), 1..300),
        chunk_len in 1usize..64,
        check in check_level(),
    ) {
        for protocol in ProtocolKind::ALL {
            let bank = [FilterSpec::hybrid_scalar(8, 4, 7, 16, 2)];
            assert_batched_matches_scalar(&refs, chunk_len, protocol, check, &bank, 64);
        }
    }

    /// One IJ geometry shared by a standalone IJ, an EJ hybrid and a VEJ
    /// hybrid (one live IJ state per node), next to the eager twin that
    /// keeps a private IJ: chunked replay must still match per-access
    /// replay, and every member must report exactly what it reports alone
    /// in a bank of one (where nothing can be shared).
    #[test]
    fn shared_ij_bank_batched_equals_scalar_and_unshared(
        refs in prop::collection::vec(ref_strategy(4, 4096), 1..300),
        chunk_len in 1usize..96,
        check in check_level(),
    ) {
        let bank = shared_ij_bank();
        for protocol in ProtocolKind::ALL {
            assert_batched_matches_scalar(&refs, chunk_len, protocol, check, &bank, 64);
            let mut shared = System::new(tiny_config(4, protocol, check), &bank);
            for chunk in refs.chunks(chunk_len) {
                shared.run_chunk(chunk);
            }
            for (spec, report) in bank.iter().zip(shared.filter_reports()) {
                let mut alone = System::new(tiny_config(4, protocol, check), &[*spec]);
                for chunk in refs.chunks(chunk_len) {
                    alone.run_chunk(chunk);
                }
                let solo = &alone.filter_reports()[0];
                prop_assert_eq!(&report.label, &solo.label);
                prop_assert_eq!(
                    (report.probes, report.filtered, report.would_miss),
                    (solo.probes, solo.filtered, solo.would_miss)
                );
                prop_assert_eq!(&report.activities, &solo.activities, "{}", report.label);
            }
        }
    }

    /// An empty filter bank logs nothing; the protocol path must still be
    /// identical to `apply`.
    #[test]
    fn empty_bank_chunks_match_scalar(
        refs in prop::collection::vec(ref_strategy(4, 32), 1..300),
        chunk_len in 1usize..64,
        check in check_level(),
    ) {
        assert_batched_matches_scalar(&refs, chunk_len, ProtocolKind::Moesi, check, &[], 32);
    }
}

/// A bank whose standalone IJ, EJ hybrid and VEJ hybrid all share the
/// IJ-8x4x7 geometry, plus the eager-allocation twin (private IJ) and an
/// unrelated EJ.
fn shared_ij_bank() -> Vec<FilterSpec> {
    vec![
        FilterSpec::include(8, 4, 7),
        FilterSpec::hybrid_scalar(8, 4, 7, 16, 2),
        FilterSpec::exclude(8, 2),
        FilterSpec::hybrid_vector(8, 4, 7, 32, 4, 8),
        FilterSpec::hybrid_scalar_eager(8, 4, 7, 16, 2),
    ]
}

/// A fixed contended trace under `CheckLevel::Full`, run as one chunk and
/// per access: the checkers fire on every access either way, the two
/// runs agree, and inclusion holds at the end.
#[test]
fn full_check_chunked_run_equals_per_access_run() {
    let refs: Vec<MemRef> = (0..200u64)
        .map(|i| MemRef {
            cpu: (i % 4) as usize,
            op: if i % 3 == 0 { Op::Write } else { Op::Read },
            addr: (i % 48) * 32,
        })
        .collect();
    for bank in [FilterSpec::paper_bank(), shared_ij_bank()] {
        assert_batched_matches_scalar(&refs, 200, ProtocolKind::Moesi, CheckLevel::Full, &bank, 48);
        let mut sys = System::new(tiny_config(4, ProtocolKind::Moesi, CheckLevel::Full), &bank);
        sys.run_chunk(&refs);
        sys.verify_inclusion();
    }
}
