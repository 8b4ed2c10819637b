//! The exhibit registry: every exhibit `jetty-repro` regenerates, in the
//! order `jetty-repro all` prints them, each declaring once the suites it
//! reads ([`Exhibit::suites`]) and how its tables are built from the
//! engine's memo ([`Exhibit::build`]). An exhibit is added here and
//! nowhere else: the command list, the one prefetch batch
//! ([`Engine::run_suites`]) and the build order all come from
//! [`Exhibit::ALL`].

use jetty_sim::ProtocolKind;

use crate::engine::Engine;
use crate::error::JettyError;
use crate::figures::{self, Fig6Panel};
use crate::results::TableData;
use crate::runner::RunOptions;
use crate::sweep::{self, SweepGrid};
use crate::{ablation, protocols, tables};
use Exhibit::*;

/// What an exhibit's suites depend on: the invocation's trace scale,
/// platform width and check level, and the sweep grid.
#[derive(Clone, Debug)]
pub struct Context {
    /// Trace-length multiplier (`--scale`).
    scale: f64,
    /// Processors of the base suite's platform (`--cpus`).
    cpus: usize,
    /// Full runtime checking (`--check`).
    check: bool,
    /// The grid the `sweep` exhibit expands (`--axis` reshapes it).
    pub grid: SweepGrid,
}

impl Context {
    /// A context with the default sweep grid at `scale`.
    pub fn new(scale: f64, cpus: usize, check: bool) -> Self {
        Self { scale, cpus, check, grid: SweepGrid::default_grid(scale) }
    }

    /// The base suite — the paper bank on the `--cpus` platform — that
    /// feeds Tables 2-3, Figures 4-6 and the calibration; also the
    /// `options` a run-store record is filed under.
    pub fn base(&self) -> RunOptions {
        RunOptions::paper().with_scale(self.scale).with_cpus(self.cpus).with_check(self.check)
    }
}

/// One exhibit of `jetty-repro`, named by its subcommand.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Exhibit {
    /// Table 1: Xeon power breakdown.
    Table1,
    /// Figure 2: analytic snoop-miss energy model (32- and 64-byte lines).
    Fig2,
    /// Table 2: workload characteristics.
    Table2,
    /// Table 3: snoop hit distribution.
    Table3,
    /// Figure 4a: EJ coverage.
    Fig4a,
    /// Figure 4b: VEJ coverage.
    Fig4b,
    /// Figure 5a: IJ coverage.
    Fig5a,
    /// Figure 5b: HJ coverage.
    Fig5b,
    /// Table 4: IJ storage.
    Table4,
    /// Figure 6: energy reductions (four panels).
    Fig6,
    /// Measured-vs-paper deltas.
    Calibrate,
    /// The 8-way summary (§4.3.4).
    Smp8,
    /// The non-subblocked summary.
    Nsb,
    /// The IJ index-overlap and HJ allocation-policy studies.
    Ablation,
    /// The MOESI/MESI/MSI sweep (an extension; not part of `all`).
    Protocols,
    /// The declarative scenario grid (an extension; not part of `all`).
    Sweep,
}

impl Exhibit {
    /// Every exhibit, in the order `jetty-repro all` prints them (the
    /// extensions last).
    pub const ALL: [Exhibit; 16] = [
        Table1, Fig2, Table2, Table3, Fig4a, Fig4b, Fig5a, Fig5b, Table4, Fig6, Calibrate, Smp8,
        Nsb, Ablation, Protocols, Sweep,
    ];

    /// The subcommand naming this exhibit.
    pub fn name(self) -> &'static str {
        match self {
            Table1 => "table1",
            Fig2 => "fig2",
            Table2 => "table2",
            Table3 => "table3",
            Fig4a => "fig4a",
            Fig4b => "fig4b",
            Fig5a => "fig5a",
            Fig5b => "fig5b",
            Table4 => "table4",
            Fig6 => "fig6",
            Calibrate => "calibrate",
            Smp8 => "smp8",
            Nsb => "nsb",
            Ablation => "ablation",
            Protocols => "protocols",
            Sweep => "sweep",
        }
    }

    /// Whether `all` includes this exhibit. `protocols` and `sweep` extend
    /// the reproduction beyond the paper, so they run only when named:
    /// folding them into `all` would change its output, which is kept
    /// byte-comparable across versions.
    pub fn in_all(self) -> bool {
        !matches!(self, Protocols | Sweep)
    }

    /// The suites [`Exhibit::build`] reads, as engine cache keys — what an
    /// invocation prefetches so every build is a memo hit.
    pub fn suites(self, ctx: &Context) -> Vec<RunOptions> {
        let (scale, check) = (ctx.scale, ctx.check);
        match self {
            Table1 | Fig2 | Table4 => Vec::new(),
            Table2 | Table3 | Fig4a | Fig4b | Fig5a | Fig5b | Fig6 | Calibrate => vec![ctx.base()],
            Smp8 => vec![ctx.base().with_cpus(8)],
            Nsb => vec![ctx.base().with_cpus(4).with_non_subblocked(true)],
            Ablation => {
                vec![
                    ablation::ij_skip_options(scale, check),
                    ablation::hj_policy_options(scale, check),
                ]
            }
            Protocols => ProtocolKind::ALL
                .iter()
                .map(|&p| protocols::protocol_options(scale, check, p))
                .collect(),
            Sweep => ctx.grid.suites(check),
        }
    }

    /// Builds this exhibit's tables, in print order, from the engine. One
    /// entry per independent part: a failed suite comes back as an `Err`
    /// in place of the tables it feeds, so the ablation's two studies fail
    /// apart while Figure 6's four panels (one suite) fail together.
    pub fn build(self, engine: &Engine, ctx: &Context) -> Vec<Result<TableData, JettyError>> {
        let (scale, check) = (ctx.scale, ctx.check);
        // The one suite a single-suite exhibit declares.
        let suite = || engine.run_suite(&self.suites(ctx)[0]);
        match self {
            Table1 => vec![Ok(tables::table1())],
            Fig2 => vec![Ok(figures::fig2(32, 10)), Ok(figures::fig2(64, 10))],
            Table2 => vec![suite().map(|runs| tables::table2(&runs))],
            Table3 => vec![suite().map(|runs| tables::table3(&runs))],
            Fig4a => vec![suite().map(|runs| figures::fig4a(&runs))],
            Fig4b => vec![suite().map(|runs| figures::fig4b(&runs))],
            Fig5a => vec![suite().map(|runs| figures::fig5a(&runs))],
            Fig5b => vec![suite().map(|runs| figures::fig5b(&runs))],
            Table4 => vec![Ok(tables::table4())],
            Fig6 => {
                spread(suite().map(|runs| Fig6Panel::ALL.map(|p| figures::fig6(&runs, p)).into()))
            }
            Calibrate => vec![suite().map(|runs| tables::calibration(&runs))],
            Smp8 => vec![suite().map(|runs| figures::smp8_summary(&runs))],
            Nsb => vec![suite().map(|runs| figures::nsb_summary(&runs))],
            Ablation => vec![
                ablation::ij_skip_ablation(engine, scale, check),
                ablation::hj_policy_ablation(engine, scale, check),
            ],
            Protocols => vec![protocols::protocols_table(engine, scale, check)],
            Sweep => spread(sweep::sweep_results(engine, &ctx.grid, check).map(|set| set.tables)),
        }
    }
}

/// Several tables that stand or fall together: each one, or the one error.
fn spread(tables: Result<Vec<TableData>, JettyError>) -> Vec<Result<TableData, JettyError>> {
    match tables {
        Ok(tables) => tables.into_iter().map(Ok).collect(),
        Err(e) => vec![Err(e)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_excludes_only_the_extensions() {
        let extensions: Vec<Exhibit> = Exhibit::ALL.into_iter().filter(|e| !e.in_all()).collect();
        assert_eq!(extensions, [Exhibit::Protocols, Exhibit::Sweep]);
    }

    #[test]
    fn every_exhibit_builds_from_its_declared_suites_alone() {
        // A build that reads a suite its `suites` never declared would
        // simulate it serially, outside the prefetch batch: the engine's
        // execution counters must not move while an exhibit builds.
        let ctx = Context::new(0.002, 4, false);
        for exhibit in Exhibit::ALL {
            let engine = Engine::new(2);
            engine.run_suites(&exhibit.suites(&ctx));
            let before = engine.stats();
            let tables = exhibit.build(&engine, &ctx);
            let after = engine.stats();
            assert_eq!(after.simulations_executed, before.simulations_executed, "{exhibit:?}");
            assert_eq!(after.suites_executed, before.suites_executed, "{exhibit:?}");
            assert!(!tables.is_empty(), "{exhibit:?} built nothing");
            for table in tables {
                table.unwrap_or_else(|e| panic!("{exhibit:?}: {e}"));
            }
        }
    }
}
