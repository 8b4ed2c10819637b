//! Ablation studies for the design choices the paper makes but does not
//! sweep:
//!
//! * **IJ index overlap** — the paper states that partially overlapped
//!   sub-array indices (skip < index width) are more accurate than
//!   disjoint slices but leaves the sweep as beyond scope (§3.2);
//!   [`ij_skip_ablation`] runs it.
//! * **HJ EJ-allocation policy** — the paper allocates EJ entries only for
//!   snoops the IJ failed to filter (§3.3); [`hj_policy_ablation`]
//!   compares that against eagerly allocating on every guaranteed miss,
//!   reporting both coverage and the EJ write traffic the eager policy
//!   spends.
//!
//! Both studies draw their suites from a caller-supplied [`Engine`], so
//! `jetty-repro all` can prefetch them concurrently with the main suites
//! (the `*_options` functions expose the exact cache keys to prefetch).

use jetty_core::FilterSpec;

use crate::engine::Engine;
use crate::error::JettyError;
use crate::results::{Cell, TableData};
use crate::runner::{average, AppRun, RunOptions};

/// The IJ skip values swept by [`ij_skip_ablation`].
const IJ_SKIPS: [u32; 4] = [2, 4, 6, 8];

/// The suite options (and cache key) behind [`ij_skip_ablation`].
pub fn ij_skip_options(scale: f64, check: bool) -> RunOptions {
    let specs = IJ_SKIPS.iter().map(|&s| FilterSpec::include(8, 4, s)).collect();
    RunOptions::paper().with_scale(scale).with_specs(specs).with_check(check)
}

/// Sweeps the Include-Jetty index skip from heavy overlap to disjoint
/// slices (IJ-8x4xS, S in {2, 4, 6, 8}; S = 8 is disjoint) and reports
/// average coverage across the suite.
pub fn ij_skip_ablation(engine: &Engine, scale: f64, check: bool) -> Result<TableData, JettyError> {
    let options = ij_skip_options(scale, check);
    let specs = options.specs.clone();
    let runs = engine.run_suite(&options)?;

    let mut t = TableData::new(
        "ablation_ij_skip",
        "Ablation: IJ index overlap (IJ-8x4xS; S=8 disjoint, paper uses overlap)",
    );
    let mut headers = vec!["App".to_string()];
    headers.extend(specs.iter().map(FilterSpec::label));
    t.headers(headers);
    for r in runs.iter() {
        let mut row = vec![Cell::label(r.profile.abbrev)];
        row.extend(specs.iter().map(|s| Cell::Ratio(r.coverage(&s.label()))));
        t.row(row);
    }
    let mut avg = vec![Cell::label("AVG")];
    avg.extend(specs.iter().map(|s| Cell::Ratio(average(&runs, |r| r.coverage(&s.label())))));
    t.row(avg);
    Ok(t)
}

/// EJ write traffic of one hybrid configuration over a run (the cost the
/// eager policy pays), summed across nodes. The EJ tag store is the last
/// array of a hybrid's array list.
// The label always comes from the suite's own bank (`hj_policy_options`
// builds both), so a missing report is a harness bug, not a reachable
// failure.
#[allow(clippy::expect_used)]
fn ej_writes(run: &AppRun, label: &str) -> u64 {
    let report = run.report(label).expect("configuration missing from bank");
    report.activities.iter().map(|a| a.arrays.last().map_or(0, |arr| arr.writes)).sum()
}

/// The suite options (and cache key) behind [`hj_policy_ablation`].
pub fn hj_policy_options(scale: f64, check: bool) -> RunOptions {
    let backup = FilterSpec::hybrid_scalar(9, 4, 7, 32, 4);
    let eager = FilterSpec::hybrid_scalar_eager(9, 4, 7, 32, 4);
    RunOptions::paper().with_scale(scale).with_specs(vec![backup, eager]).with_check(check)
}

/// Compares the paper's backup EJ-allocation policy against the eager
/// variant on (IJ-9x4x7, EJ-32x4).
pub fn hj_policy_ablation(
    engine: &Engine,
    scale: f64,
    check: bool,
) -> Result<TableData, JettyError> {
    let options = hj_policy_options(scale, check);
    let backup = options.specs[0];
    let eager = options.specs[1];
    let runs = engine.run_suite(&options)?;

    let mut t =
        TableData::new("ablation_hj_policy", "Ablation: HJ EJ-allocation policy (backup = paper)");
    t.headers(["App", "backup cov", "eager cov", "backup EJ writes", "eager EJ writes"]);
    for r in runs.iter() {
        t.row([
            Cell::label(r.profile.abbrev),
            Cell::Ratio(r.coverage(&backup.label())),
            Cell::Ratio(r.coverage(&eager.label())),
            Cell::Count(ej_writes(r, &backup.label())),
            Cell::Count(ej_writes(r, &eager.label())),
        ]);
    }
    t.row([
        Cell::label("AVG"),
        Cell::Ratio(average(&runs, |r| r.coverage(&backup.label()))),
        Cell::Ratio(average(&runs, |r| r.coverage(&eager.label()))),
        Cell::Empty,
        Cell::Empty,
    ]);
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ij_skip_ablation_runs() {
        let t = ij_skip_ablation(&Engine::new(1), 0.002, false).unwrap();
        assert_eq!(t.len(), 11); // 10 apps + AVG
        assert!(t.render().contains("IJ-8x4x8"));
    }

    #[test]
    fn hj_policy_ablation_runs() {
        let t = hj_policy_ablation(&Engine::new(1), 0.002, false).unwrap();
        assert_eq!(t.len(), 11);
        assert!(t.render().contains("eager"));
    }

    #[test]
    fn ablations_share_one_engine_cache() {
        let engine = Engine::new(2);
        let a = ij_skip_ablation(&engine, 0.002, false).unwrap();
        let b = ij_skip_ablation(&engine, 0.002, false).unwrap();
        assert_eq!(a.render(), b.render());
        assert_eq!(engine.stats().suites_executed, 1);
        assert_eq!(engine.stats().cache_hits, 1);
    }

    #[test]
    fn check_flag_reaches_ablation_cache_keys() {
        assert_ne!(ij_skip_options(0.002, false), ij_skip_options(0.002, true));
        assert!(hj_policy_options(0.002, true).check);
        // A checked ablation actually runs (full invariants on).
        let t = ij_skip_ablation(&Engine::new(2), 0.002, true).unwrap();
        assert_eq!(t.len(), 11);
    }
}
