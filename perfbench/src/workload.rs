//! The benchmark's three workloads, each a closed batch: the suites handed
//! to `Engine::run_suites` in one call, then the exhibits built from the
//! engine's cache, in the order `jetty-repro` builds them.

use jetty_experiments::figures::{self, Fig6Panel};
use jetty_experiments::sweep::{self, SweepGrid};
use jetty_experiments::{ablation, tables, AppRun, Engine, ResultSet, RunOptions};

/// The trace scale every workload is sized at (and its digests are pinned
/// at). Short batches give a run many samples, so its fastest batch is
/// rarely one that a slow stretch of the host spans.
pub const DEFAULT_SCALE: f64 = 0.1;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Everything `jetty-repro all` computes.
    PaperAll,
    /// The default `jetty-repro sweep` grid: MOESI/MESI/MSI x {4, 8} CPUs
    /// around the single hybrid HJ (IJ-10x4x7, EJ-32x4).
    ProtocolGrid,
    /// The 4-way paper bank under full runtime checking.
    CheckedPaper,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::PaperAll, Workload::ProtocolGrid, Workload::CheckedPaper];

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperAll => "paper-all",
            Workload::ProtocolGrid => "protocol-grid",
            Workload::CheckedPaper => "checked-paper",
        }
    }

    /// The suites of one batch, in `jetty-repro`'s prefetch order.
    pub fn suites(self, scale: f64) -> Vec<RunOptions> {
        let base = RunOptions::paper().with_scale(scale);
        match self {
            Workload::PaperAll => vec![
                base.clone(),
                base.clone().with_cpus(8),
                base.with_non_subblocked(true),
                ablation::ij_skip_options(scale, false),
                ablation::hj_policy_options(scale, false),
            ],
            Workload::ProtocolGrid => SweepGrid::default_grid(scale).suites(false),
            Workload::CheckedPaper => {
                let mut checked = base;
                checked.check = true;
                vec![checked]
            }
        }
    }

    /// Builds every exhibit of the workload from the engine (cache hits
    /// after the batch), as `jetty-repro all` / `sweep` / `--check` do.
    /// Exhibits whose suite failed are skipped; the batch reports the
    /// failed suites themselves.
    pub fn exhibits(self, engine: &Engine, scale: f64) -> ResultSet {
        let suites = self.suites(scale);
        let mut set = ResultSet::new();
        match self {
            Workload::PaperAll => {
                set.push(tables::table1());
                set.push(figures::fig2(32, 10));
                set.push(figures::fig2(64, 10));
                let base = engine.run_suite(&suites[0]).ok();
                if let Some(runs) = &base {
                    push_base_figures(&mut set, runs);
                }
                set.push(tables::table4());
                if let Some(runs) = &base {
                    push_energy_and_calibration(&mut set, runs);
                }
                if let Ok(runs) = engine.run_suite(&suites[1]) {
                    set.push(figures::smp8_summary(&runs));
                }
                if let Ok(runs) = engine.run_suite(&suites[2]) {
                    set.push(figures::nsb_summary(&runs));
                }
                set.tables.extend(ablation::ij_skip_ablation(engine, scale, false));
                set.tables.extend(ablation::hj_policy_ablation(engine, scale, false));
            }
            Workload::ProtocolGrid => {
                if let Ok(results) =
                    sweep::sweep_results(engine, &SweepGrid::default_grid(scale), false)
                {
                    set.tables.extend(results.tables);
                }
            }
            Workload::CheckedPaper => {
                if let Ok(runs) = engine.run_suite(&suites[0]) {
                    push_base_figures(&mut set, &runs);
                    push_energy_and_calibration(&mut set, &runs);
                }
            }
        }
        set
    }
}

fn push_base_figures(set: &mut ResultSet, runs: &[AppRun]) {
    set.push(tables::table2(runs));
    set.push(tables::table3(runs));
    set.push(figures::fig4a(runs));
    set.push(figures::fig4b(runs));
    set.push(figures::fig5a(runs));
    set.push(figures::fig5b(runs));
}

fn push_energy_and_calibration(set: &mut ResultSet, runs: &[AppRun]) {
    for panel in [
        Fig6Panel::SnoopSerial,
        Fig6Panel::AllSerial,
        Fig6Panel::SnoopParallel,
        Fig6Panel::AllParallel,
    ] {
        set.push(figures::fig6(runs, panel));
    }
    set.push(tables::calibration(runs));
}
