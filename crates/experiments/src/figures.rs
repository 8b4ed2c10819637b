//! Regenerators for the paper's figures (as typed tables — series values
//! rather than plots, suitable for diffing, JSON export, and
//! EXPERIMENTS.md).

use jetty_core::FilterSpec;
use jetty_energy::{figure2_panel, AccessMode, SmpEnergyModel, TechParams};

use crate::results::{Cell, TableData};
use crate::runner::{average, AppRun};

/// Figure 2: the Appendix-A analytic model, one table per block size.
/// Rows are local hit rates, columns remote hit rates 0%..90%.
pub fn fig2(block_bytes: usize, local_steps: usize) -> TableData {
    let panel = figure2_panel(4, block_bytes, local_steps, &TechParams::default());
    let mut t = TableData::new(
        format!("fig2_{block_bytes}B"),
        format!("Figure 2: snoop-miss tag energy as % of all L2 energy ({block_bytes}-byte lines)"),
    );
    let mut headers = vec!["local hit".to_string()];
    headers.extend(panel.curves.iter().map(|c| format!("R={:.1}%", 100.0 * c.remote_hit_rate)));
    t.headers(headers);
    for i in 0..=local_steps {
        let local = panel.curves[0].points[i].0;
        let mut row = vec![Cell::Fixed { value: local, dp: 2 }];
        row.extend(panel.curves.iter().map(|c| Cell::Ratio(c.points[i].1)));
        t.row(row);
    }
    t
}

/// Renders a coverage figure: one row per application plus the average,
/// one column per filter configuration.
fn coverage_table(id: &str, title: &str, runs: &[AppRun], specs: &[FilterSpec]) -> TableData {
    let mut t = TableData::new(id, title);
    let mut headers = vec!["App".to_string()];
    headers.extend(specs.iter().map(FilterSpec::label));
    t.headers(headers);
    for r in runs {
        let mut row = vec![Cell::label(r.profile.abbrev)];
        row.extend(specs.iter().map(|s| Cell::Ratio(r.coverage(&s.label()))));
        t.row(row);
    }
    let mut avg_row = vec![Cell::label("AVG")];
    avg_row.extend(specs.iter().map(|s| Cell::Ratio(average(runs, |r| r.coverage(&s.label())))));
    t.row(avg_row);
    t
}

/// Figure 4(a): Exclude-Jetty snoop-miss coverage.
pub fn fig4a(runs: &[AppRun]) -> TableData {
    coverage_table("fig4a", "Figure 4a: Exclude-Jetty coverage", runs, &FilterSpec::figure4a_set())
}

/// Figure 4(b): Vector-Exclude-Jetty coverage (with the EJ baselines the
/// paper plots alongside).
pub fn fig4b(runs: &[AppRun]) -> TableData {
    let specs = vec![
        FilterSpec::vector_exclude(32, 4, 8),
        FilterSpec::vector_exclude(32, 4, 4),
        FilterSpec::exclude(32, 4),
        FilterSpec::vector_exclude(16, 4, 8),
        FilterSpec::vector_exclude(16, 4, 4),
        FilterSpec::exclude(16, 4),
    ];
    coverage_table("fig4b", "Figure 4b: Vector-Exclude-Jetty coverage", runs, &specs)
}

/// Figure 5(a): Include-Jetty coverage.
pub fn fig5a(runs: &[AppRun]) -> TableData {
    coverage_table("fig5a", "Figure 5a: Include-Jetty coverage", runs, &FilterSpec::figure5a_set())
}

/// Figure 5(b): Hybrid-Jetty coverage.
pub fn fig5b(runs: &[AppRun]) -> TableData {
    coverage_table("fig5b", "Figure 5b: Hybrid-Jetty coverage", runs, &FilterSpec::figure5b_set())
}

/// Which panel of Figure 6 to regenerate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fig6Panel {
    /// (a) Reduction over all snoop accesses, serial tag/data.
    SnoopSerial,
    /// (b) Reduction over all L2 accesses, serial tag/data.
    AllSerial,
    /// (c) Reduction over all snoop accesses, parallel tag/data.
    SnoopParallel,
    /// (d) Reduction over all L2 accesses, parallel tag/data.
    AllParallel,
}

impl Fig6Panel {
    /// The four panels, in the paper's (a)-(d) order.
    pub const ALL: [Fig6Panel; 4] = [
        Fig6Panel::SnoopSerial,
        Fig6Panel::AllSerial,
        Fig6Panel::SnoopParallel,
        Fig6Panel::AllParallel,
    ];

    fn mode(self) -> AccessMode {
        match self {
            Fig6Panel::SnoopSerial | Fig6Panel::AllSerial => AccessMode::Serial,
            Fig6Panel::SnoopParallel | Fig6Panel::AllParallel => AccessMode::Parallel,
        }
    }

    fn over_snoops(self) -> bool {
        matches!(self, Fig6Panel::SnoopSerial | Fig6Panel::SnoopParallel)
    }

    /// Machine-readable table id (`fig6a`..`fig6d`).
    pub fn id(self) -> &'static str {
        match self {
            Fig6Panel::SnoopSerial => "fig6a",
            Fig6Panel::AllSerial => "fig6b",
            Fig6Panel::SnoopParallel => "fig6c",
            Fig6Panel::AllParallel => "fig6d",
        }
    }

    fn title(self) -> &'static str {
        match self {
            Fig6Panel::SnoopSerial => "Figure 6a: energy reduction over snoop accesses (serial L2)",
            Fig6Panel::AllSerial => "Figure 6b: energy reduction over all L2 accesses (serial L2)",
            Fig6Panel::SnoopParallel => {
                "Figure 6c: energy reduction over snoop accesses (parallel L2)"
            }
            Fig6Panel::AllParallel => {
                "Figure 6d: energy reduction over all L2 accesses (parallel L2)"
            }
        }
    }

    /// The HJ configurations the panel plots: all six for (a), the EJ-32x4
    /// hybrids for (b)-(d) (the paper restricts the later panels).
    fn specs(self) -> Vec<FilterSpec> {
        match self {
            Fig6Panel::SnoopSerial => FilterSpec::figure5b_set(),
            _ => vec![
                FilterSpec::hybrid_scalar(10, 4, 7, 32, 4),
                FilterSpec::hybrid_scalar(9, 4, 7, 32, 4),
                FilterSpec::hybrid_scalar(8, 4, 7, 32, 4),
            ],
        }
    }
}

/// Regenerates one panel of Figure 6.
pub fn fig6(runs: &[AppRun], panel: Fig6Panel) -> TableData {
    let model = SmpEnergyModel::paper_node();
    let specs = panel.specs();
    let mode = panel.mode();
    let mut t = TableData::new(panel.id(), panel.title());
    let mut headers = vec!["App".to_string()];
    headers.extend(specs.iter().map(FilterSpec::label));
    t.headers(headers);

    let reduction = |r: &AppRun, spec: &FilterSpec| {
        let report = r
            .report(&spec.label())
            .unwrap_or_else(|| panic!("configuration {} not in the bank", spec.label()));
        if panel.over_snoops() {
            model.snoop_energy_reduction(&r.run, report, mode)
        } else {
            model.total_energy_reduction(&r.run, report, mode)
        }
    };

    for r in runs {
        let mut row = vec![Cell::label(r.profile.abbrev)];
        row.extend(specs.iter().map(|s| Cell::Ratio(reduction(r, s))));
        t.row(row);
    }
    let mut avg_row = vec![Cell::label("AVG")];
    avg_row.extend(specs.iter().map(|s| Cell::Ratio(average(runs, |r| reduction(r, s)))));
    t.row(avg_row);
    t
}

/// §4.3.4's 8-way SMP summary: snoop-miss share of all L2 accesses and the
/// average coverage of the best hybrid.
pub fn smp8_summary(runs: &[AppRun]) -> TableData {
    let best = FilterSpec::hybrid_scalar(10, 4, 7, 32, 4).label();
    let mut t =
        TableData::new("smp8", "8-way SMP summary (paper: 76.4% snoop-miss share, 79% coverage)");
    t.headers(["metric", "measured"]);
    t.row([
        Cell::label("snoop-miss % of all L2 accesses (avg)"),
        Cell::Ratio(average(runs, |r| r.run.snoop_miss_fraction_of_all())),
    ]);
    t.row([
        Cell::label(format!("avg coverage of {best}")),
        Cell::Ratio(average(runs, |r| r.coverage(&best))),
    ]);
    t
}

/// The non-subblocked summary the paper reports in passing (§4.2, §4.3):
/// snoop-miss shares and best-hybrid coverage without subblocking.
pub fn nsb_summary(runs: &[AppRun]) -> TableData {
    let best = FilterSpec::hybrid_scalar(10, 4, 7, 32, 4).label();
    let mut t = TableData::new(
        "nsb",
        "Non-subblocked L2 summary (paper: 68% snoop misses, 46% of all accesses, 68% coverage)",
    );
    t.headers(["metric", "measured"]);
    t.row([
        Cell::label("snoop-miss % of snoop accesses (avg)"),
        Cell::Ratio(average(runs, |r| r.run.snoop_miss_fraction_of_snoops())),
    ]);
    t.row([
        Cell::label("snoop-miss % of all L2 accesses (avg)"),
        Cell::Ratio(average(runs, |r| r.run.snoop_miss_fraction_of_all())),
    ]);
    t.row([
        Cell::label(format!("avg coverage of {best}")),
        Cell::Ratio(average(runs, |r| r.coverage(&best))),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_app, RunOptions};
    use jetty_workloads::apps;

    fn runs() -> Vec<AppRun> {
        let options = RunOptions::paper().with_scale(0.005);
        vec![run_app(&apps::fft(), &options), run_app(&apps::unstructured(), &options)]
    }

    #[test]
    fn fig2_is_a_grid() {
        let t = fig2(32, 10);
        assert_eq!(t.len(), 11);
        assert_eq!(t.id, "fig2_32B");
        assert!(t.render().contains("R=90.0%"));
    }

    #[test]
    fn coverage_figures_have_avg_rows() {
        let rs = runs();
        for t in [fig4a(&rs), fig4b(&rs), fig5a(&rs), fig5b(&rs)] {
            assert_eq!(t.len(), 3); // two apps + AVG
            assert!(t.render().contains("AVG"));
        }
    }

    #[test]
    fn fig6_all_panels_render() {
        let rs = runs();
        for panel in [
            Fig6Panel::SnoopSerial,
            Fig6Panel::AllSerial,
            Fig6Panel::SnoopParallel,
            Fig6Panel::AllParallel,
        ] {
            let t = fig6(&rs, panel);
            assert_eq!(t.len(), 3);
            assert_eq!(t.id, panel.id());
        }
    }

    #[test]
    fn fig6a_plots_six_hybrids() {
        let rs = runs();
        let s = fig6(&rs, Fig6Panel::SnoopSerial).render();
        assert!(s.contains("(IJ-10x4x7, EJ-32x4)"));
        assert!(s.contains("(IJ-8x4x7, EJ-16x2)"));
    }

    #[test]
    fn summaries_render() {
        let rs = runs();
        assert_eq!(smp8_summary(&rs).len(), 2);
        assert_eq!(nsb_summary(&rs).len(), 3);
    }
}
