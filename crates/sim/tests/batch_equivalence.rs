//! Batched-vs-scalar equivalence: [`System::run_chunk`] defers the filter
//! bank to a per-chunk event replay, and that replay must be *invisible* —
//! a chunked run and a reference-at-a-time scalar run over the same trace
//! must agree on every observable: protocol statistics, L2 states, and
//! every filter's probes/filtered/would-miss counts and per-node array
//! activity. This is the property the golden-output byte-identity checks
//! sample at three scales; here proptest hammers it with arbitrary traces,
//! arbitrary chunk boundaries, and every pluggable protocol.

use jetty_core::{AddrSpace, FilterSpec};
use jetty_sim::{CheckLevel, L1Config, L2Config, MemRef, Op, ProtocolKind, System, SystemConfig};
use proptest::prelude::*;

/// The tiny thrashing geometry from `protocol_fuzz`, but with checks off:
/// `CheckLevel::Full` forces the scalar fallback inside `run_chunk`, and
/// this suite exists to exercise the *batched* path.
fn tiny_config(cpus: usize, protocol: ProtocolKind) -> SystemConfig {
    SystemConfig {
        cpus,
        l1: L1Config::new(256, 32),
        l2: L2Config::new(1024, 64, 2),
        wb_entries: 2,
        addr: AddrSpace::default(),
        check: CheckLevel::Off,
        protocol,
    }
}

/// Reference strategy over a small, highly contended address range.
fn ref_strategy(cpus: usize, units: u64) -> impl Strategy<Value = MemRef> {
    (0..cpus, any::<bool>(), 0..units).prop_map(|(cpu, write, unit)| MemRef {
        cpu,
        op: if write { Op::Write } else { Op::Read },
        addr: unit * 32,
    })
}

/// Runs `refs` through a batched system (chunks of `chunk_len`) and a
/// scalar one, then asserts every observable matches.
fn assert_batched_matches_scalar(
    refs: &[MemRef],
    chunk_len: usize,
    protocol: ProtocolKind,
    specs: &[FilterSpec],
    units: u64,
) {
    let mut batched = System::new(tiny_config(4, protocol), specs);
    let mut scalar = System::new(tiny_config(4, protocol), specs);

    for chunk in refs.chunks(chunk_len) {
        batched.run_chunk(chunk);
    }
    for &r in refs {
        scalar.apply(r);
    }

    assert_eq!(batched.run_stats(), scalar.run_stats(), "{protocol}: protocol stats diverged");
    for cpu in 0..4 {
        for unit in 0..units {
            assert_eq!(
                batched.l2_state(cpu, unit * 32),
                scalar.l2_state(cpu, unit * 32),
                "{protocol}: node {cpu} unit {unit} state diverged"
            );
        }
    }
    let b_reports = batched.filter_reports();
    let s_reports = scalar.filter_reports();
    assert_eq!(b_reports.len(), s_reports.len());
    for (b, s) in b_reports.iter().zip(&s_reports) {
        assert_eq!(b.label, s.label);
        assert_eq!(b.probes, s.probes, "{}: probe count diverged", b.label);
        assert_eq!(b.filtered, s.filtered, "{}: filtered count diverged", b.label);
        assert_eq!(b.would_miss, s.would_miss, "{}: would-miss denominator diverged", b.label);
        assert_eq!(b.activities, s.activities, "{}: per-node array activity diverged", b.label);
    }
    batched.verify_filter_consistency();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// The full paper bank (include, exclude, vector-exclude and hybrid
    /// variants all at once) over contended traffic: batched replay must
    /// be observation-identical for every protocol and any chunk boundary,
    /// including chunk lengths that leave a partial final chunk.
    #[test]
    fn paper_bank_batched_equals_scalar(
        refs in prop::collection::vec(ref_strategy(4, 64), 1..400),
        chunk_len in 1usize..96,
    ) {
        for protocol in ProtocolKind::ALL {
            assert_batched_matches_scalar(
                &refs,
                chunk_len,
                protocol,
                &FilterSpec::paper_bank(),
                64,
            );
        }
    }

    /// Sparse traffic through a hybrid filter: exercises eager exclude
    /// allocation inside the replay (the one filter whose probe mutates
    /// state) plus eviction-driven deallocate events.
    #[test]
    fn hybrid_batched_equals_scalar_under_eviction_pressure(
        refs in prop::collection::vec(ref_strategy(4, 4096), 1..300),
        chunk_len in 1usize..64,
    ) {
        for protocol in ProtocolKind::ALL {
            assert_batched_matches_scalar(
                &refs,
                chunk_len,
                protocol,
                &[FilterSpec::hybrid_scalar(8, 4, 7, 16, 2)],
                64,
            );
        }
    }

    /// One IJ geometry shared by a standalone IJ, an EJ hybrid and a VEJ
    /// hybrid (one live IJ state per node), next to the eager twin that
    /// keeps a private IJ: batched replay must still match the per-event
    /// path, and every member must report exactly what it reports alone
    /// in a bank of one (where nothing can be shared).
    #[test]
    fn shared_ij_bank_batched_equals_scalar_and_unshared(
        refs in prop::collection::vec(ref_strategy(4, 4096), 1..300),
        chunk_len in 1usize..96,
    ) {
        let bank = shared_ij_bank();
        for protocol in ProtocolKind::ALL {
            assert_batched_matches_scalar(&refs, chunk_len, protocol, &bank, 64);
            let mut shared = System::new(tiny_config(4, protocol), &bank);
            for chunk in refs.chunks(chunk_len) {
                shared.run_chunk(chunk);
            }
            for (spec, report) in bank.iter().zip(shared.filter_reports()) {
                let mut alone = System::new(tiny_config(4, protocol), &[*spec]);
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

    /// An empty filter bank takes the scalar fallback inside `run_chunk`;
    /// the protocol path must still be identical to `apply`.
    #[test]
    fn empty_bank_chunks_match_scalar(
        refs in prop::collection::vec(ref_strategy(4, 32), 1..300),
        chunk_len in 1usize..64,
    ) {
        assert_batched_matches_scalar(&refs, chunk_len, ProtocolKind::Moesi, &[], 32);
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

/// Under `CheckLevel::Full`, `run_chunk` must fall back to scalar probing
/// so the filter-safety assertion still fires *at* the offending access —
/// and the per-access checkers still see every intermediate state. This
/// pins the fallback condition documented in ARCHITECTURE §2a.1.
#[test]
fn full_check_runs_still_verify_through_run_chunk() {
    let config = SystemConfig { check: CheckLevel::Full, ..tiny_config(4, ProtocolKind::Moesi) };
    let mut sys = System::new(config, &FilterSpec::paper_bank());
    let refs: Vec<MemRef> = (0..200u64)
        .map(|i| MemRef {
            cpu: (i % 4) as usize,
            op: if i % 3 == 0 { Op::Write } else { Op::Read },
            addr: (i % 48) * 32,
        })
        .collect();
    sys.run_chunk(&refs);
    sys.verify_inclusion();
    sys.verify_filter_consistency();
    let mut shared = System::new(config, &shared_ij_bank());
    shared.run_chunk(&refs);
    shared.verify_filter_consistency();
}
