//! The declarative sweep engine (`jetty-repro sweep`): a [`SweepGrid`]
//! names values along five scenario axes — `cpus` × `protocol` × `filter`
//! geometry × trace `scale` × L2 subblocking — and expands their cross
//! product into [`RunOptions`] cache keys for the parallel [`Engine`].
//!
//! Two deliberate economies fall out of the expansion:
//!
//! * **The filter axis is free.** Filters are bystanders (the paper's own
//!   methodology), so every filter value of a platform point rides the
//!   *same* simulation as one bank entry: a grid of `P` platform points ×
//!   `F` filters costs `P` suites, not `P × F`. The [`Engine`] applies the
//!   same rule to every batch (it folds all suites of one platform into
//!   one simulation), so a grid suite that shares its platform with
//!   another suite of the invocation also shares its simulation.
//! * **Suites are cache keys.** The grid expands to exactly the
//!   [`RunOptions`] the [`Engine`]'s result memo is keyed by, so a sweep
//!   sharing points with other commands in the same invocation
//!   (`jetty-repro protocols sweep`), or rendering after its prefetch
//!   batch, re-reads cached suites instead of re-simulating —
//!   observable via `--timings` and the `[sweep]` stderr summary.
//!
//! The result is one comparative [`ResultSet`]: the point-per-row grid
//! table plus a marginal summary per multi-valued axis, rendered in any
//! `--format`.

use jetty_core::FilterSpec;
use jetty_energy::{AccessMode, SmpEnergyModel};
use jetty_sim::ProtocolKind;

use crate::engine::Engine;
use crate::error::JettyError;
use crate::results::{Cell, ResultSet, TableData};
use crate::runner::{average, parse_scale, RunOptions};

/// One named axis of the sweep grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Axis {
    /// Processors on the bus (`cpus=4,8`).
    Cpus,
    /// Coherence protocol (`protocol=moesi,mesi,msi`).
    Protocol,
    /// Filter geometry, as stable [`FilterSpec`] ids
    /// (`filter=hj-ij10x4x7-ej32x4,ej-32x4,none`).
    Filter,
    /// Trace-length multiplier (`scale=0.02,0.1`).
    Scale,
    /// L2 subblocking (`nsb=sb,nsb`).
    Subblocking,
}

impl Axis {
    /// Every axis, in grid-expansion (and table-column) order.
    pub const ALL: [Axis; 5] =
        [Axis::Cpus, Axis::Protocol, Axis::Filter, Axis::Scale, Axis::Subblocking];

    /// The CLI name of this axis (the `NAME` in `--axis NAME=V1,V2`).
    pub fn name(self) -> &'static str {
        match self {
            Axis::Cpus => "cpus",
            Axis::Protocol => "protocol",
            Axis::Filter => "filter",
            Axis::Scale => "scale",
            Axis::Subblocking => "nsb",
        }
    }

    /// Parses an axis name (case-insensitive).
    pub fn parse(name: &str) -> Option<Axis> {
        Axis::ALL.into_iter().find(|a| a.name() == name.to_ascii_lowercase())
    }
}

/// One expanded point of the grid: a platform tuple plus the filter under
/// observation (the filter axis never multiplies simulations — see the
/// module docs).
#[derive(Clone, Debug, PartialEq)]
pub struct SweepPoint {
    /// Processors on the bus.
    pub cpus: usize,
    /// Coherence protocol.
    pub protocol: ProtocolKind,
    /// Trace-length multiplier.
    pub scale: f64,
    /// Non-subblocked L2 variant?
    pub non_subblocked: bool,
    /// The filter configuration this row scores.
    pub filter: FilterSpec,
    /// Index into [`SweepGrid::suites`] of the platform suite this point
    /// reads.
    pub suite: usize,
}

/// A declarative scenario grid: values per axis, expanded as a cross
/// product.
///
/// # Examples
///
/// ```
/// use jetty_experiments::sweep::{Axis, SweepGrid};
///
/// let mut grid = SweepGrid::single_point(0.02);
/// grid.set_axis(Axis::Cpus, "4,8").unwrap();
/// grid.set_axis(Axis::Protocol, "moesi,msi").unwrap();
/// assert_eq!(grid.points().len(), 4);
/// assert_eq!(grid.suites(false).len(), 4);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct SweepGrid {
    /// `cpus` axis values.
    pub cpus: Vec<usize>,
    /// `protocol` axis values.
    pub protocols: Vec<ProtocolKind>,
    /// `filter` axis values.
    pub filters: Vec<FilterSpec>,
    /// `scale` axis values.
    pub scales: Vec<f64>,
    /// `nsb` axis values (`false` = subblocked, the paper's platform).
    pub non_subblocked: Vec<bool>,
}

impl SweepGrid {
    /// The single paper point: 4-way MOESI, subblocked L2, the paper's
    /// best hybrid, at the given scale. Axes grow from here via
    /// [`SweepGrid::set_axis`].
    pub fn single_point(scale: f64) -> Self {
        Self {
            cpus: vec![4],
            protocols: vec![ProtocolKind::Moesi],
            filters: vec![FilterSpec::hybrid_scalar(10, 4, 7, 32, 4)],
            scales: vec![scale],
            non_subblocked: vec![false],
        }
    }

    /// The default `jetty-repro sweep` grid: protocol × cpus (3 × {4, 8})
    /// around the paper's best hybrid — a two-axis comparison out of the
    /// box.
    pub fn default_grid(scale: f64) -> Self {
        let mut grid = Self::single_point(scale);
        grid.cpus = vec![4, 8];
        grid.protocols = ProtocolKind::ALL.to_vec();
        grid
    }

    /// Replaces one axis's values from a comma-separated CLI string.
    /// Rejects empty lists, unparsable values, invalid geometries
    /// (`cpus<2`, `scale<=0`), and duplicates (a duplicated value would
    /// silently duplicate every row it touches).
    pub fn set_axis(&mut self, axis: Axis, values: &str) -> Result<(), String> {
        fn parse_list<T: PartialEq>(
            axis: Axis,
            values: &str,
            parse: impl Fn(&str) -> Result<T, String>,
        ) -> Result<Vec<T>, String> {
            let mut out = Vec::new();
            for raw in values.split(',') {
                let raw = raw.trim();
                if raw.is_empty() {
                    return Err(format!("axis {}: empty value in {values:?}", axis.name()));
                }
                let v = parse(raw)?;
                if out.contains(&v) {
                    return Err(format!("axis {}: duplicate value {raw:?}", axis.name()));
                }
                out.push(v);
            }
            if out.is_empty() {
                return Err(format!("axis {} needs at least one value", axis.name()));
            }
            Ok(out)
        }

        match axis {
            Axis::Cpus => {
                self.cpus = parse_list(axis, values, |raw| {
                    let n: usize =
                        raw.parse().map_err(|_| format!("axis cpus: bad value {raw:?}"))?;
                    if n < 2 {
                        return Err(format!(
                            "axis cpus: a snoopy SMP needs at least 2 processors, got {n}"
                        ));
                    }
                    Ok(n)
                })?;
            }
            Axis::Protocol => {
                self.protocols = parse_list(axis, values, |raw| {
                    ProtocolKind::parse(raw).ok_or(format!(
                        "axis protocol: unknown protocol {raw:?} (want moesi, mesi or msi)"
                    ))
                })?;
            }
            Axis::Filter => {
                self.filters = parse_list(axis, values, |raw| {
                    FilterSpec::from_id(raw).ok_or(format!(
                        "axis filter: unknown filter id {raw:?} \
                         (e.g. ej-32x4, vej-16x4-8, ij-10x4x7, hj-ij10x4x7-ej32x4, none)"
                    ))
                })?;
            }
            Axis::Scale => {
                self.scales = parse_list(axis, values, |raw| {
                    parse_scale(raw).map_err(|e| format!("axis scale: {e}"))
                })?;
            }
            Axis::Subblocking => {
                self.non_subblocked =
                    parse_list(axis, values, |raw| match raw.to_ascii_lowercase().as_str() {
                        "sb" => Ok(false),
                        "nsb" => Ok(true),
                        _ => Err(format!("axis nsb: want sb or nsb, got {raw:?}")),
                    })?;
            }
        }
        Ok(())
    }

    /// Number of values along one axis.
    pub fn axis_len(&self, axis: Axis) -> usize {
        match axis {
            Axis::Cpus => self.cpus.len(),
            Axis::Protocol => self.protocols.len(),
            Axis::Filter => self.filters.len(),
            Axis::Scale => self.scales.len(),
            Axis::Subblocking => self.non_subblocked.len(),
        }
    }

    /// The axes holding more than one value (what the sweep actually
    /// compares).
    pub fn swept_axes(&self) -> Vec<Axis> {
        Axis::ALL.into_iter().filter(|&a| self.axis_len(a) > 1).collect()
    }

    /// The platform suites the grid expands to, one [`RunOptions`] cache
    /// key per (cpus, protocol, scale, subblocking) tuple — the filter
    /// axis folds into each suite's bank.
    pub fn suites(&self, check: bool) -> Vec<RunOptions> {
        let mut suites = Vec::new();
        for &cpus in &self.cpus {
            for &protocol in &self.protocols {
                for &scale in &self.scales {
                    for &nsb in &self.non_subblocked {
                        suites.push(
                            RunOptions::paper()
                                .with_scale(scale)
                                .with_cpus(cpus)
                                .with_specs(self.filters.clone())
                                .with_protocol(protocol)
                                .with_non_subblocked(nsb)
                                .with_check(check),
                        );
                    }
                }
            }
        }
        suites
    }

    /// The expanded grid points, in platform-major order (matching
    /// [`SweepGrid::suites`]), filters innermost.
    pub fn points(&self) -> Vec<SweepPoint> {
        let mut points = Vec::new();
        for (suite, options) in self.suites(false).iter().enumerate() {
            for &filter in &self.filters {
                points.push(SweepPoint {
                    cpus: options.cpus,
                    protocol: options.protocol,
                    scale: options.scale,
                    non_subblocked: options.non_subblocked,
                    filter,
                    suite,
                });
            }
        }
        points
    }

    /// One-line description of the grid for stderr logs, e.g.
    /// `cpus=4,8 protocol=MOESI,MESI,MSI filter=hj-ij10x4x7-ej32x4 scale=0.02 nsb=sb`.
    pub fn describe(&self) -> String {
        let join = |items: Vec<String>| items.join(",");
        format!(
            "cpus={} protocol={} filter={} scale={} nsb={}",
            join(self.cpus.iter().map(ToString::to_string).collect()),
            join(self.protocols.iter().map(ToString::to_string).collect()),
            join(self.filters.iter().map(FilterSpec::id).collect()),
            join(self.scales.iter().map(ToString::to_string).collect()),
            join(
                self.non_subblocked
                    .iter()
                    .map(|&n| if n { "nsb".to_owned() } else { "sb".to_owned() })
                    .collect()
            ),
        )
    }
}

/// The per-point metrics the sweep tabulates (suite averages over the
/// ten-application workload; storage is a property of the filter
/// geometry, identical across apps).
struct PointMetrics {
    storage_bytes: u64,
    coverage: f64,
    filter_rate: f64,
    would_miss: f64,
    snoop_reduction: f64,
    mem_wb_uj: f64,
}

/// Materializes the comparative [`ResultSet`] for a grid: the point-per-row
/// grid table plus one marginal-average row per value of every multi-valued
/// axis.
///
/// Every point fetches its platform suite through the engine — after the
/// prefetch batch these are all suite-cache hits, which is what makes a
/// wide grid affordable and what the `[sweep]` stderr summary reports.
/// A failed platform suite fails the whole sweep (`Err` carries the first
/// suite error): the grid and marginal tables are cross-point comparisons,
/// meaningless with holes.
// A point's filter always sits in its own suite's bank (`grid.suites`
// builds each bank from `grid.filters` directly above), so a missing
// report is a harness bug, not a reachable failure.
#[allow(clippy::expect_used)]
pub fn sweep_results(
    engine: &Engine,
    grid: &SweepGrid,
    check: bool,
) -> Result<ResultSet, JettyError> {
    let suites = grid.suites(check);
    let points = grid.points();
    let model = SmpEnergyModel::paper_node();

    let mut metrics: Vec<PointMetrics> = Vec::with_capacity(points.len());
    for p in &points {
        let runs = engine.run_suite(&suites[p.suite])?;
        let label = p.filter.label();
        metrics.push(PointMetrics {
            storage_bytes: runs
                .first()
                .and_then(|r| r.report(&label))
                .map_or(0, |report| report.storage_bytes() as u64),
            coverage: average(&runs, |r| r.coverage(&label)),
            filter_rate: average(&runs, |r| {
                r.report(&label).expect("filter missing from bank").filter_rate()
            }),
            would_miss: average(&runs, |r| r.run.snoop_miss_fraction_of_snoops()),
            snoop_reduction: average(&runs, |r| {
                let report = r.report(&label).expect("filter missing from bank");
                model.protocol_energy(&r.run, report, AccessMode::Serial).snoop_reduction
            }),
            mem_wb_uj: average(&runs, |r| {
                let report = r.report(&label).expect("filter missing from bank");
                model.protocol_energy(&r.run, report, AccessMode::Serial).memory_writeback_uj()
            }),
        });
    }

    let swept: Vec<String> = grid.swept_axes().iter().map(|a| a.name().to_owned()).collect();
    let axes_desc = if swept.is_empty() { "single point".to_owned() } else { swept.join(" x ") };

    let mut grid_table = TableData::new(
        "sweep",
        format!(
            "Sweep: coverage and energy across {axes_desc} \
             ({} points over {} suites; suite averages)",
            points.len(),
            suites.len()
        ),
    );
    grid_table.headers([
        "cpus",
        "protocol",
        "scale",
        "L2",
        "filter",
        "bytes",
        "coverage",
        "filtered",
        "would-miss",
        "snoop dE",
        "memWB uJ",
    ]);
    for (p, m) in points.iter().zip(&metrics) {
        grid_table.row([
            Cell::Count(p.cpus as u64),
            Cell::label(p.protocol.to_string()),
            Cell::Float(p.scale),
            Cell::label(if p.non_subblocked { "nsb" } else { "sb" }),
            Cell::label(p.filter.id()),
            Cell::Count(m.storage_bytes),
            Cell::Ratio(m.coverage),
            Cell::Ratio(m.filter_rate),
            Cell::Ratio(m.would_miss),
            Cell::Ratio(m.snoop_reduction),
            Cell::EnergyUj(m.mem_wb_uj),
        ]);
    }

    let mut axis_table = TableData::new(
        "sweep_axes",
        "Sweep marginals: per-axis-value averages over the grid".to_owned(),
    );
    axis_table.headers(["axis", "value", "points", "coverage", "snoop dE", "memWB uJ"]);
    for axis in grid.swept_axes() {
        for value in 0..grid.axis_len(axis) {
            let selected: Vec<&PointMetrics> = points
                .iter()
                .zip(&metrics)
                .filter(|(p, _)| match axis {
                    Axis::Cpus => p.cpus == grid.cpus[value],
                    Axis::Protocol => p.protocol == grid.protocols[value],
                    Axis::Filter => p.filter == grid.filters[value],
                    Axis::Scale => p.scale.to_bits() == grid.scales[value].to_bits(),
                    Axis::Subblocking => p.non_subblocked == grid.non_subblocked[value],
                })
                .map(|(_, m)| m)
                .collect();
            let value_cell = match axis {
                Axis::Cpus => Cell::Count(grid.cpus[value] as u64),
                Axis::Protocol => Cell::label(grid.protocols[value].to_string()),
                Axis::Filter => Cell::label(grid.filters[value].id()),
                Axis::Scale => Cell::Float(grid.scales[value]),
                Axis::Subblocking => {
                    Cell::label(if grid.non_subblocked[value] { "nsb" } else { "sb" })
                }
            };
            let mean = |f: &dyn Fn(&PointMetrics) -> f64| {
                selected.iter().map(|m| f(m)).sum::<f64>() / selected.len() as f64
            };
            axis_table.row([
                Cell::label(axis.name()),
                value_cell,
                Cell::Count(selected.len() as u64),
                Cell::Ratio(mean(&|m| m.coverage)),
                Cell::Ratio(mean(&|m| m.snoop_reduction)),
                Cell::EnergyUj(mean(&|m| m.mem_wb_uj)),
            ]);
        }
    }

    let mut set = ResultSet::new();
    set.push(grid_table);
    set.push(axis_table);
    Ok(set)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::results::render::Format;

    #[test]
    fn filter_axis_does_not_multiply_suites() {
        let mut grid = SweepGrid::single_point(0.002);
        grid.set_axis(Axis::Filter, "hj-ij10x4x7-ej32x4,ej-32x4,none").unwrap();
        grid.set_axis(Axis::Protocol, "moesi,msi").unwrap();
        assert_eq!(grid.suites(false).len(), 2, "two platforms");
        assert_eq!(grid.points().len(), 6, "three filters ride each platform");
        // Each suite's bank carries all three filters.
        assert_eq!(grid.suites(false)[0].specs.len(), 3);
    }

    #[test]
    fn default_grid_is_two_axis() {
        let grid = SweepGrid::default_grid(0.02);
        assert_eq!(grid.swept_axes(), vec![Axis::Cpus, Axis::Protocol]);
        assert_eq!(grid.suites(false).len(), 6);
        assert_eq!(grid.points().len(), 6);
    }

    #[test]
    fn set_axis_rejects_bad_values() {
        let mut grid = SweepGrid::single_point(0.02);
        for (axis, bad) in [
            (Axis::Cpus, "1"),
            (Axis::Cpus, "four"),
            (Axis::Cpus, "4,,8"),
            (Axis::Cpus, "4,4"),
            (Axis::Cpus, ""),
            (Axis::Protocol, "mosi"),
            (Axis::Filter, "ej-31x4"),
            (Axis::Filter, "what"),
            (Axis::Scale, "0"),
            (Axis::Scale, "-1"),
            (Axis::Scale, "inf"),
            (Axis::Subblocking, "maybe"),
        ] {
            let before = grid.clone();
            assert!(grid.set_axis(axis, bad).is_err(), "{axis:?}={bad:?} must fail");
            assert_eq!(grid, before, "a failed set_axis must not mutate the grid");
        }
    }

    #[test]
    fn axis_names_round_trip() {
        for axis in Axis::ALL {
            assert_eq!(Axis::parse(axis.name()), Some(axis));
            assert_eq!(Axis::parse(&axis.name().to_uppercase()), Some(axis));
        }
        assert_eq!(Axis::parse("bank"), None);
    }

    #[test]
    fn describe_names_every_axis() {
        let grid = SweepGrid::default_grid(0.02);
        let d = grid.describe();
        assert_eq!(
            d,
            "cpus=4,8 protocol=MOESI,MESI,MSI filter=hj-ij10x4x7-ej32x4 scale=0.02 nsb=sb"
        );
    }

    #[test]
    fn sweep_reads_every_point_from_the_cache_after_prefetch() {
        let engine = Engine::new(2);
        let mut grid = SweepGrid::single_point(0.002);
        grid.set_axis(Axis::Protocol, "moesi,mesi").unwrap();
        grid.set_axis(Axis::Filter, "hj-ij10x4x7-ej32x4,ej-32x4").unwrap();
        engine.run_suites(&grid.suites(false));
        let executed = engine.stats().suites_executed;
        assert_eq!(executed, 2);

        let set = sweep_results(&engine, &grid, false).unwrap();
        assert_eq!(engine.stats().suites_executed, executed, "rendering must not simulate");
        assert_eq!(engine.stats().cache_hits, 4, "one hit per point");
        assert_eq!(set.tables.len(), 2);
        let grid_table = &set.tables[0];
        assert_eq!(grid_table.id, "sweep");
        assert_eq!(grid_table.len(), 4);
        // Marginals: one row per value of each swept axis (protocol, filter).
        assert_eq!(set.tables[1].len(), 4);
    }

    #[test]
    fn sweep_renders_in_all_three_formats() {
        let engine = Engine::new(2);
        let mut grid = SweepGrid::single_point(0.002);
        grid.set_axis(Axis::Subblocking, "sb,nsb").unwrap();
        let set = sweep_results(&engine, &grid, false).unwrap();
        for format in Format::ALL {
            let out = format.renderer().render_set(&set);
            assert!(out.contains("hj-ij10x4x7-ej32x4"), "{format:?}: {out}");
        }
        let text = Format::Text.renderer().render_set(&set);
        assert!(text.contains("== Sweep:"));
        assert!(text.contains("nsb"));
        // The storage column carries the filter geometry's real footprint
        // (the paper's best hybrid is ~2 KB), not a placeholder.
        let grid_table = &set.tables[0];
        let bytes_col = grid_table.columns.iter().position(|c| c == "bytes").expect("bytes column");
        assert!(matches!(grid_table.rows[0][bytes_col], Cell::Count(n) if n > 0));
    }

    #[test]
    fn single_point_grid_has_empty_marginals() {
        let engine = Engine::new(1);
        let grid = SweepGrid::single_point(0.002);
        let set = sweep_results(&engine, &grid, false).unwrap();
        assert_eq!(set.tables[0].len(), 1);
        assert!(set.tables[1].is_empty());
        assert!(set.tables[0].title.contains("single point"));
    }
}
