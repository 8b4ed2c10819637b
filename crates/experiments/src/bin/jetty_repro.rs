//! `jetty-repro` — regenerates every table and figure of the JETTY paper.
//!
//! Usage:
//!
//! ```text
//! jetty-repro [COMMANDS...] [--scale X] [--cpus N] [--threads N] [--shards N]
//!             [--format FMT] [--csv DIR] [--axis NAME=V1,V2] [--check]
//!             [--timings] [--store PATH] [--timing-band PCT]
//!             [--deadline-ms MS] [--strict]
//! ```
//!
//! One subcommand per paper exhibit; [`COMMANDS`] is the authoritative
//! list (also printed by `--help`). Default: `all`.
//!
//! Every suite-consuming subcommand draws its runs from one shared
//! [`Engine`]: the needed suites are collected up front and executed
//! concurrently on `--threads` workers (default: available parallelism,
//! or `JETTY_THREADS`), then each exhibit populates typed
//! [`TableData`] records from the suite cache in paper order. The whole
//! [`ResultSet`] is rendered once at the end by the `--format` renderer —
//! aligned text (the default; byte-identical to the historical output),
//! JSON, or CSV.
//!
//! Failure model: a failed suite does not abort the invocation. Every
//! exhibit the failure feeds is skipped, the surviving exhibits render
//! exactly as they would have, and a final `failures` table names each
//! failed suite with its typed error. The exit code distinguishes the
//! three outcomes: 0 (clean), 2 (partial — results rendered, but some
//! suites failed or the store append failed), 1 (total — nothing but
//! failures, or a usage/store-command error). See ARCHITECTURE.md
//! ("Failure model & fault injection").

// Same failure-model discipline as the library crate: user-reachable
// paths carry typed errors instead of panicking.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::HashSet;
use std::env;
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use jetty_experiments::engine::{Engine, SuiteTiming};
use jetty_experiments::error::{exit, JettyError};
use jetty_experiments::figures::{self, Fig6Panel};
use jetty_experiments::results::render::Format;
use jetty_experiments::results::{Cell, ResultSet, TableData};
use jetty_experiments::runner::{AppRun, RunOptions};
use jetty_experiments::store::diff::{diff_runs, DiffOptions};
use jetty_experiments::store::{self, RunInfo, RunRef, RunStore};
use jetty_experiments::sweep::{self, Axis, SweepGrid};
use jetty_experiments::{ablation, protocols, tables};

/// Every recognised subcommand: the paper's exhibits in paper order, then
/// the extensions (`protocols` and `sweep` are *not* part of `all` — see
/// [`usage`]), then the run-store commands (`runs`, `diff`), which read
/// recorded results instead of simulating.
const COMMANDS: &[&str] = &[
    "all",
    "table1",
    "fig2",
    "table2",
    "table3",
    "table4",
    "fig4a",
    "fig4b",
    "fig5a",
    "fig5b",
    "fig6",
    "smp8",
    "nsb",
    "calibrate",
    "ablation",
    "protocols",
    "sweep",
    "runs",
    "diff",
];

/// The `--help` text (stdout, exit 0 — distinct from the unknown-flag
/// error path, which goes to stderr and exits nonzero).
fn usage() -> String {
    format!(
        "jetty-repro [COMMANDS...] [--scale X] [--cpus N] [--threads N] \
         [--shards N] [--format FMT] [--csv DIR] [--axis NAME=V1,V2] [--check] \
         [--timings] [--store PATH] [--timing-band PCT] [--deadline-ms MS] \
         [--strict]\n\
         commands: {}\n\
         `all` regenerates every paper exhibit; `protocols` (the \
         MOESI/MESI/MSI sweep) and `sweep` (the declarative scenario grid) \
         are opt-in and not part of `all`\n\
         `runs` lists a run store; `diff RUN_A RUN_B` compares two recorded \
         runs cell-by-cell (a run ref is N, latest, or PATH:REF) and exits \
         nonzero on drift\n\
         --format selects the output renderer: text json csv (default: text)\n\
         --axis configures the sweep grid (repeatable; axes: cpus protocol \
         filter scale nsb), e.g. --axis cpus=4,8 --axis protocol=moesi,msi\n\
         --threads defaults to available parallelism (env override: JETTY_THREADS)\n\
         --shards fans each job's per-node snoop replay out to N slices \
         (default 1; env override: JETTY_SHARDS; capped against --threads so \
         jobs times shards never oversubscribes the host; results are \
         byte-identical at any count)\n\
         --timings reports per-simulation wall-clock on stderr (stdout untouched)\n\
         --store appends this invocation's results to an append-only run \
         store file (and is where `runs`/`diff` read from)\n\
         --timing-band makes `diff` also fail when run B is more than PCT \
         percent slower than run A\n\
         --deadline-ms caps each simulation job's wall-clock (env default: \
         JETTY_DEADLINE_MS); an expired job fails its suite, it does not \
         abort the invocation\n\
         --strict makes `runs` exit nonzero when the store has a damaged \
         tail (default: warn and list the intact prefix)\n\
         exit codes: 0 = clean, 2 = partial (results rendered but some \
         suites failed, or the store append failed), 1 = total failure or \
         usage error",
        COMMANDS.join(" ")
    )
}

struct Cli {
    commands: Vec<String>,
    scale: f64,
    cpus: usize,
    /// `None` = no `--threads` flag; resolved via [`Engine::default_threads`]
    /// only when an engine is actually built (so an invalid `JETTY_THREADS`
    /// never warns when it is overridden or unused).
    threads: Option<usize>,
    /// `None` = no `--shards` flag; resolved via [`Engine::default_shards`]
    /// only when an engine is actually built (so an invalid `JETTY_SHARDS`
    /// never warns when it is overridden or unused).
    shards: Option<usize>,
    format: Format,
    csv_dir: Option<PathBuf>,
    /// `--axis NAME=VALUES` flags, in order (validated against the sweep
    /// grid once parsing is done — they require the `sweep` command).
    axes: Vec<(Axis, String)>,
    check: bool,
    /// Report per-simulation wall-clock attribution on stderr (stdout stays
    /// byte-identical, so the golden-output guarantee is unaffected).
    timings: bool,
    /// `--store PATH`: append this invocation's results to a run store
    /// (and the default store `runs`/`diff` read from).
    store: Option<PathBuf>,
    /// The two run refs following the `diff` command.
    diff_refs: Vec<String>,
    /// `--timing-band PCT`: the allowed slowdown before `diff` fails on
    /// timing (requires `diff`; `None` disables the timing check).
    timing_band: Option<f64>,
    /// `--deadline-ms MS`: per-job wall-clock budget. `None` = no flag;
    /// resolved via [`Engine::default_deadline`] (the `JETTY_DEADLINE_MS`
    /// environment variable) only when suites actually run.
    deadline_ms: Option<u64>,
    /// `--strict`: make `runs` treat a damaged store tail as a failure
    /// (exit 1) instead of a stderr warning.
    strict: bool,
}

/// Outcome of argument parsing: a run to perform, or an informational
/// request (help) that short-circuits with success.
enum Parsed {
    Run(Box<Cli>),
    Help,
}

fn parse_args() -> Result<Parsed, String> {
    let mut cli = Cli {
        commands: Vec::new(),
        scale: 1.0,
        cpus: 4,
        threads: None,
        shards: None,
        format: Format::Text,
        csv_dir: None,
        axes: Vec::new(),
        check: false,
        timings: false,
        store: None,
        diff_refs: Vec::new(),
        timing_band: None,
        deadline_ms: None,
        strict: false,
    };
    let mut args = env::args().skip(1);
    // Bare words right after `diff` are run refs, not subcommands.
    let mut pending_diff_refs = 0usize;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let v = args.next().ok_or("--scale needs a value")?;
                cli.scale = v.parse().map_err(|_| format!("bad scale: {v}"))?;
                if cli.scale <= 0.0 {
                    return Err("scale must be positive".into());
                }
            }
            "--cpus" => {
                let v = args.next().ok_or("--cpus needs a value")?;
                cli.cpus = v.parse().map_err(|_| format!("bad cpu count: {v}"))?;
                if cli.cpus < 2 {
                    return Err(format!(
                        "--cpus must be at least 2 (a snoopy SMP needs multiple processors \
                         on the bus); got {}",
                        cli.cpus
                    ));
                }
            }
            "--threads" => {
                let v = args.next().ok_or("--threads needs a value")?;
                let n: usize = v.parse().map_err(|_| format!("bad thread count: {v}"))?;
                if n < 1 {
                    return Err("--threads must be at least 1".into());
                }
                cli.threads = Some(n);
            }
            "--shards" => {
                let v = args.next().ok_or("--shards needs a value")?;
                let n: usize = v.parse().map_err(|_| format!("bad shard count: {v}"))?;
                if n < 1 {
                    return Err("--shards must be at least 1".into());
                }
                cli.shards = Some(n);
            }
            "--format" => {
                let v = args.next().ok_or("--format needs a value")?;
                cli.format = Format::parse(&v)
                    .ok_or(format!("unknown format: {v} (formats: text json csv)"))?;
            }
            "--csv" => {
                let v = args.next().ok_or("--csv needs a directory")?;
                cli.csv_dir = Some(PathBuf::from(v));
            }
            "--axis" => {
                let v = args.next().ok_or("--axis needs NAME=VALUES")?;
                let (name, values) =
                    v.split_once('=').ok_or(format!("bad --axis {v:?} (want NAME=V1,V2)"))?;
                let axis = Axis::parse(name).ok_or(format!(
                    "unknown sweep axis: {name} (axes: cpus protocol filter scale nsb)"
                ))?;
                cli.axes.push((axis, values.to_string()));
            }
            "--check" => cli.check = true,
            "--timings" => cli.timings = true,
            "--store" => {
                let v = args.next().ok_or("--store needs a file path")?;
                cli.store = Some(PathBuf::from(v));
            }
            "--timing-band" => {
                let v = args.next().ok_or("--timing-band needs a percentage")?;
                let pct: f64 = v.parse().map_err(|_| format!("bad timing band: {v}"))?;
                if !pct.is_finite() || pct < 0.0 {
                    return Err(format!("--timing-band must be a non-negative percent; got {v}"));
                }
                cli.timing_band = Some(pct);
            }
            "--deadline-ms" => {
                let v = args.next().ok_or("--deadline-ms needs a value")?;
                let ms: u64 = v.parse().map_err(|_| format!("bad deadline: {v}"))?;
                if ms < 1 {
                    return Err("--deadline-ms must be at least 1".into());
                }
                cli.deadline_ms = Some(ms);
            }
            "--strict" => cli.strict = true,
            "--help" | "-h" => return Ok(Parsed::Help),
            cmd if !cmd.starts_with('-') => {
                if pending_diff_refs > 0 {
                    pending_diff_refs -= 1;
                    cli.diff_refs.push(cmd.to_string());
                    continue;
                }
                if !COMMANDS.contains(&cmd) {
                    return Err(format!(
                        "unknown command: {cmd} (commands: {})",
                        COMMANDS.join(" ")
                    ));
                }
                if cmd == "diff" {
                    pending_diff_refs = 2;
                }
                cli.commands.push(cmd.to_string());
            }
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    if cli.commands.is_empty() {
        cli.commands.push("all".to_string());
    }
    if !cli.axes.is_empty() && !cli.commands.iter().any(|c| c == "sweep") {
        return Err("--axis configures the sweep grid; add the sweep command".into());
    }
    // `runs` and `diff` read the store instead of simulating; mixing them
    // with exhibit commands would conflate two output documents.
    let store_command = cli.commands.iter().any(|c| c == "runs" || c == "diff");
    if store_command && cli.commands.len() > 1 {
        return Err("runs/diff read recorded results and cannot be combined \
                    with other commands"
            .into());
    }
    if cli.commands.iter().any(|c| c == "diff") && cli.diff_refs.len() != 2 {
        return Err("diff needs two run refs: diff RUN_A RUN_B \
                    (a run ref is N, latest, or PATH:REF)"
            .into());
    }
    if cli.timing_band.is_some() && !cli.commands.iter().any(|c| c == "diff") {
        return Err("--timing-band only applies to diff".into());
    }
    if cli.commands.iter().any(|c| c == "runs") && cli.store.is_none() {
        return Err("runs needs --store PATH".into());
    }
    if cli.strict && !cli.commands.iter().any(|c| c == "runs") {
        return Err("--strict only applies to runs".into());
    }
    Ok(Parsed::Run(Box::new(cli)))
}

/// Resolves a run ref (`N`, `latest`, or `PATH:REF`) to a store and a
/// position; refs without an embedded path fall back to `--store`.
fn parse_run_ref(raw: &str, default_store: Option<&PathBuf>) -> Result<(RunStore, RunRef), String> {
    if let Some(rf) = RunRef::parse(raw) {
        let store = default_store
            .ok_or_else(|| format!("run ref {raw:?} has no store; pass --store PATH"))?;
        return Ok((RunStore::open(store), rf));
    }
    if let Some((path, rest)) = raw.rsplit_once(':') {
        if let (false, Some(rf)) = (path.is_empty(), RunRef::parse(rest)) {
            return Ok((RunStore::open(PathBuf::from(path)), rf));
        }
    }
    Err(format!("bad run ref {raw:?} (want N, latest, or PATH:REF)"))
}

/// `jetty-repro runs`: renders a listing of the store's intact records and
/// warns (stderr) about a damaged tail, if any. With `--strict`, a damaged
/// tail makes the listing "unclean" (exit 1) instead of just warning.
fn run_list(cli: &Cli) -> Result<(ResultSet, bool), String> {
    // `parse_args` rejects `runs` without `--store`, but the failure-model
    // lints (rightly) refuse to take that on faith here.
    let path = cli.store.as_ref().ok_or("runs needs --store PATH")?;
    let store = RunStore::open(path);
    let scan = store.scan().map_err(|e| e.to_string())?;
    if let Some(damage) = &scan.damage {
        eprintln!(
            "[store] damaged tail at byte {} of {}: {} ({} intact runs kept)",
            damage.offset,
            store.path().display(),
            damage.reason,
            scan.records.len()
        );
    }
    let mut table = TableData::new("runs", format!("run store: {}", store.path().display()));
    table.headers([
        "run",
        "recorded (unix)",
        "git rev",
        "command",
        "options",
        "timing (ms)",
        "tables",
        "cells",
    ]);
    for record in &scan.records {
        let m = &record.meta;
        table.row([
            Cell::Count(m.seq),
            Cell::Count(m.unix_time),
            Cell::label(m.git_rev.clone()),
            Cell::label(m.command.clone()),
            Cell::label(m.options.clone()),
            Cell::Count(m.timing_ms),
            Cell::Count(record.results.len() as u64),
            Cell::Count(record.cell_count()),
        ]);
    }
    let mut set = ResultSet::new();
    set.push(table);
    let clean = !(cli.strict && scan.damage.is_some());
    Ok((set, clean))
}

/// `jetty-repro diff A B`: compares two recorded runs; `Ok(false)` means
/// the comparison ran but found drift or a timing regression (the CI
/// gate's failure signal).
fn run_diff(cli: &Cli) -> Result<(ResultSet, bool), String> {
    let (store_a, ref_a) = parse_run_ref(&cli.diff_refs[0], cli.store.as_ref())?;
    let (store_b, ref_b) = parse_run_ref(&cli.diff_refs[1], cli.store.as_ref())?;
    let resolve = |store: &RunStore, rf: RunRef| -> Result<jetty_experiments::RunRecord, String> {
        let scan = store.scan().map_err(|e| e.to_string())?;
        if let Some(damage) = &scan.damage {
            eprintln!(
                "[store] damaged tail at byte {} of {}: {}",
                damage.offset,
                store.path().display(),
                damage.reason
            );
        }
        store.resolve(&scan, rf).map_err(|e| e.to_string()).cloned()
    };
    let a = resolve(&store_a, ref_a)?;
    let b = resolve(&store_b, ref_b)?;
    let report = diff_runs(&a, &b, DiffOptions { timing_band_pct: cli.timing_band });
    eprintln!(
        "[diff] {} vs {}: {} ({} drift entries over {} cells)",
        report.a.label(),
        report.b.label(),
        report.verdict(),
        report.entries.len(),
        report.cells_compared
    );
    let clean = report.is_clean();
    Ok((report.to_result_set(), clean))
}

/// Commands that need a full 4-way suite run.
const SUITE_COMMANDS: &[&str] =
    &["all", "table2", "table3", "fig4a", "fig4b", "fig5a", "fig5b", "fig6"];

fn main() -> ExitCode {
    let cli = match parse_args() {
        Ok(Parsed::Run(cli)) => *cli,
        Ok(Parsed::Help) => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Resolve the fault plan up front (not lazily at the first injection
    // point) so an invocation that never reaches an injection site still
    // reports an armed or invalid JETTY_FAULT exactly once.
    let _ = jetty_experiments::fault::active();

    // The store commands read recorded results instead of simulating:
    // render and exit here. `diff` exits nonzero on drift or an
    // out-of-band timing — that exit code *is* the CI regression gate —
    // and `runs --strict` exits nonzero on a damaged store tail.
    if cli.commands.iter().any(|c| c == "runs" || c == "diff") {
        let outcome = if cli.commands[0] == "runs" { run_list(&cli) } else { run_diff(&cli) };
        return match outcome {
            Ok((set, clean)) => {
                print!("{}", cli.format.renderer().render_set(&set));
                if clean {
                    ExitCode::from(exit::CLEAN)
                } else {
                    ExitCode::from(exit::TOTAL)
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(exit::TOTAL)
            }
        };
    }

    let wants = |cmd: &str| cli.commands.iter().any(|c| c == cmd || c == "all");
    // `protocols` and `sweep` extend the reproduction beyond the paper's
    // exhibits, so they must be requested by name: folding them into `all`
    // would change `jetty-repro all` output, which is kept byte-comparable
    // across versions.
    let wants_protocols = cli.commands.iter().any(|c| c == "protocols");
    let wants_sweep = cli.commands.iter().any(|c| c == "sweep");

    // The sweep grid: the default protocol × cpus comparison, reshaped by
    // any `--axis` flags (validated here so errors precede simulation).
    let mut grid = SweepGrid::default_grid(cli.scale);
    for (axis, values) in &cli.axes {
        if let Err(e) = grid.set_axis(*axis, values) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }

    // One builder so scale/check (and any future all-suite option) stay in
    // sync across every cache key this process uses.
    let suite_options = |cpus: usize, non_subblocked: bool| {
        let mut options = RunOptions::paper().with_scale(cli.scale).with_cpus(cpus);
        options.non_subblocked = non_subblocked;
        options.check = cli.check;
        options
    };
    // One 4-way suite pass feeds every workload-driven table/figure.
    let base_options = suite_options(cli.cpus, false);
    let smp8_options = suite_options(8, false);
    let nsb_options = suite_options(4, true);

    // Collect every suite the requested commands will consume and run them
    // through the engine as one concurrent batch; the per-command code
    // below then renders from the cache, in paper order.
    let needs_suite = SUITE_COMMANDS.iter().any(|c| wants(c)) || wants("calibrate");
    let mut prefetch: Vec<RunOptions> = Vec::new();
    if needs_suite {
        prefetch.push(base_options.clone());
    }
    if wants("smp8") {
        prefetch.push(smp8_options.clone());
    }
    if wants("nsb") {
        prefetch.push(nsb_options.clone());
    }
    if wants("ablation") {
        prefetch.push(ablation::ij_skip_options(cli.scale, cli.check));
        prefetch.push(ablation::hj_policy_options(cli.scale, cli.check));
    }
    if wants_protocols {
        prefetch.extend(protocols::protocols_prefetch(cli.scale, cli.check));
    }
    if wants_sweep {
        prefetch.extend(grid.suites(cli.check));
    }
    // Size the pool only when suites will actually run, so commands that
    // never simulate (and explicit `--threads`/`--deadline-ms`) skip the
    // env lookups.
    let engine = if prefetch.is_empty() {
        Engine::new(1)
    } else {
        let deadline = match cli.deadline_ms {
            Some(ms) => Some(Duration::from_millis(ms)),
            None => Engine::default_deadline(),
        };
        Engine::new(cli.threads.unwrap_or_else(Engine::default_threads))
            .with_deadline(deadline)
            .with_shards(cli.shards.unwrap_or_else(Engine::default_shards))
    };
    // Per-simulation wall-clock attribution (stderr only): lets perf work
    // blame time without external profilers. Printed after every batch
    // the engine executes, so late, non-prefetched suites still report.
    let report_timings = |timings: &[SuiteTiming]| {
        if !cli.timings {
            return;
        }
        for t in timings {
            eprintln!(
                "[timing] simulation {}: {:.3}s across {} jobs (gen {:.3}s, sim {:.3}s) \
                 kernel={} shards={} suites={}",
                t.options.describe(),
                t.elapsed.as_secs_f64(),
                t.jobs,
                t.gen.as_secs_f64(),
                t.sim.as_secs_f64(),
                t.kernel,
                t.shards,
                t.suites.join(",")
            );
        }
    };

    // Failed suites, in first-seen order, deduplicated by suite id (the
    // engine's error memo answers repeat requests with the same error, so
    // a suite that feeds several exhibits must still report once). Each
    // failure also gets one stderr line at the moment it is recorded.
    let mut failures: Vec<JettyError> = Vec::new();
    let mut failed_seen: HashSet<String> = HashSet::new();
    let record_failure =
        |failures: &mut Vec<JettyError>, failed_seen: &mut HashSet<String>, e: JettyError| {
            let key = e.suite().map(str::to_string).unwrap_or_else(|| e.to_string());
            if failed_seen.insert(key) {
                eprintln!("error: {e}");
                failures.push(e);
            }
        };

    // Suite-simulation wall-clock of this invocation: what `--store`
    // records as `timing_ms` and `diff --timing-band` later compares.
    let mut suite_elapsed_ms: u64 = 0;
    if !prefetch.is_empty() {
        let started = Instant::now();
        let suites = engine.run_suites(&prefetch);
        // Coalesced requests return the same Arc (e.g. `all --cpus 8`
        // makes the base and smp8 suites one key); count each once.
        let mut seen = std::collections::HashSet::new();
        for outcome in suites {
            match outcome {
                Ok(runs) => {
                    seen.insert(Arc::as_ptr(&runs));
                }
                Err(e) => record_failure(&mut failures, &mut failed_seen, e),
            }
        }
        suite_elapsed_ms = started.elapsed().as_millis() as u64;
        let stats = engine.stats();
        let timings = engine.take_timings();
        let refs: u64 = timings.iter().map(|t| t.refs).sum();
        // Suites the commands consume vs simulations actually run: the
        // engine folds same-platform suites into one simulation.
        eprintln!(
            "[engine: {} suites as {} simulations ({} jobs, {:.1}M refs) on {} threads, {:.1}s]",
            seen.len(),
            stats.simulations_executed,
            stats.jobs_executed,
            refs as f64 / 1e6,
            engine.threads(),
            started.elapsed().as_secs_f64()
        );
        report_timings(&timings);
    }

    // The base suite feeds most exhibits; when it failed, each of them is
    // skipped (the failure is already recorded above) and the independent
    // exhibits carry on.
    let suite: Option<Arc<Vec<AppRun>>> = if needs_suite {
        match engine.run_suite(&base_options) {
            Ok(runs) => Some(runs),
            Err(e) => {
                record_failure(&mut failures, &mut failed_seen, e);
                None
            }
        }
    } else {
        None
    };

    // Collect typed, render late: every exhibit pushes its TableData here
    // and one renderer pass at the end produces the whole stdout (the text
    // renderer reproduces the historical one-println!-per-table stream
    // byte for byte).
    let mut set = ResultSet::new();
    let mut emit = |table: TableData| set.push(table);

    if wants("table1") {
        emit(tables::table1());
    }
    if wants("fig2") {
        emit(figures::fig2(32, 10));
        emit(figures::fig2(64, 10));
    }
    if wants("table2") {
        if let Some(suite) = &suite {
            emit(tables::table2(suite));
        }
    }
    if wants("table3") {
        if let Some(suite) = &suite {
            emit(tables::table3(suite));
        }
    }
    if wants("fig4a") {
        if let Some(suite) = &suite {
            emit(figures::fig4a(suite));
        }
    }
    if wants("fig4b") {
        if let Some(suite) = &suite {
            emit(figures::fig4b(suite));
        }
    }
    if wants("fig5a") {
        if let Some(suite) = &suite {
            emit(figures::fig5a(suite));
        }
    }
    if wants("fig5b") {
        if let Some(suite) = &suite {
            emit(figures::fig5b(suite));
        }
    }
    if wants("table4") {
        emit(tables::table4());
    }
    if wants("fig6") {
        if let Some(suite) = &suite {
            for panel in [
                Fig6Panel::SnoopSerial,
                Fig6Panel::AllSerial,
                Fig6Panel::SnoopParallel,
                Fig6Panel::AllParallel,
            ] {
                emit(figures::fig6(suite, panel));
            }
        }
    }
    if wants("calibrate") {
        if let Some(suite) = &suite {
            emit(tables::calibration(suite));
        }
    }
    if wants("smp8") {
        match engine.run_suite(&smp8_options) {
            Ok(runs) => emit(figures::smp8_summary(&runs)),
            Err(e) => record_failure(&mut failures, &mut failed_seen, e),
        }
    }
    if wants("nsb") {
        match engine.run_suite(&nsb_options) {
            Ok(runs) => emit(figures::nsb_summary(&runs)),
            Err(e) => record_failure(&mut failures, &mut failed_seen, e),
        }
    }
    if wants("ablation") {
        match ablation::ij_skip_ablation(&engine, cli.scale, cli.check) {
            Ok(table) => emit(table),
            Err(e) => record_failure(&mut failures, &mut failed_seen, e),
        }
        match ablation::hj_policy_ablation(&engine, cli.scale, cli.check) {
            Ok(table) => emit(table),
            Err(e) => record_failure(&mut failures, &mut failed_seen, e),
        }
    }
    if wants_protocols {
        match protocols::protocols_table(&engine, cli.scale, cli.check) {
            Ok(table) => emit(table),
            Err(e) => record_failure(&mut failures, &mut failed_seen, e),
        }
    }
    if wants_sweep {
        match sweep::sweep_results(&engine, &grid, cli.check) {
            Ok(results) => {
                for table in results.tables {
                    emit(table);
                }
            }
            Err(e) => record_failure(&mut failures, &mut failed_seen, e),
        }
        // The grid's cache economics, engine-wide: with `sweep` alone the
        // prefetch executes one simulation per suite and the render pass
        // reads one cached suite per point, so the hit rate is
        // points / (points + suites); sharing keys with other commands in
        // the same invocation (e.g. `protocols sweep`) raises it.
        let stats = engine.stats();
        eprintln!(
            "[sweep] grid {} -> {} points over {} suites; engine cache: {} hits / {} requests \
             (hit rate {:.1}%)",
            grid.describe(),
            grid.points().len(),
            grid.suites(cli.check).len(),
            stats.cache_hits,
            stats.cache_hits + stats.suites_executed + stats.suites_failed,
            100.0 * stats.hit_rate(),
        );
    }
    // Suites executed outside the prefetch batch (normally none — the
    // prefetch covers every command — but kept exact regardless).
    report_timings(&engine.take_timings());

    // Failed suites render as an ordinary table — last, so the surviving
    // exhibits above it keep their byte-identical positions in every
    // format (text, JSON, CSV).
    if !failures.is_empty() {
        let mut table =
            TableData::new("failures", "Failed suites (the tables above are a partial result)");
        table.headers(["suite", "kind", "error"]);
        for e in &failures {
            table.row([
                Cell::label(e.suite().unwrap_or("-")),
                Cell::label(e.kind()),
                Cell::text_cell(e.detail()),
            ]);
        }
        set.push(table);
    }

    // One renderer pass for the whole invocation.
    print!("{}", cli.format.renderer().render_set(&set));
    if let Some(dir) = &cli.csv_dir {
        let csv = Format::Csv.renderer();
        for table in &set.tables {
            if let Err(e) = fs::create_dir_all(dir).and_then(|()| {
                fs::write(dir.join(format!("{}.csv", table.id)), csv.render_table(table))
            }) {
                eprintln!("warning: failed to write {}.csv: {e}", table.id);
            }
        }
    }

    // Persist the rendered results (exact typed cells, not the text) in
    // the run store. `JETTY_STORE_NOW` / `JETTY_GIT_REV` /
    // `JETTY_STORE_TIMING_MS` pin the non-deterministic metadata for
    // golden tests and the committed CI reference record.
    let mut store_failed = false;
    if let Some(path) = &cli.store {
        let timing_ms = env::var("JETTY_STORE_TIMING_MS")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .unwrap_or(suite_elapsed_ms);
        let info = RunInfo {
            unix_time: store::unix_time_now(),
            git_rev: store::git_rev(),
            command: cli.commands.join(" "),
            options: base_options.id(),
            timing_ms,
        };
        match RunStore::open(path).append(&info, &set) {
            Ok(outcome) => {
                if let Some(damage) = &outcome.recovered {
                    eprintln!(
                        "[store] discarded damaged tail at byte {}: {}",
                        damage.offset, damage.reason
                    );
                }
                eprintln!(
                    "[store] recorded run #{} ({}) in {}",
                    outcome.seq,
                    info.options,
                    path.display()
                );
            }
            Err(e) => {
                eprintln!("error: {e}");
                store_failed = true;
            }
        }
    }

    // Three-way exit code: clean (0), partial (2 — real tables rendered,
    // but a suite or the store append failed after them), total (1 —
    // every exhibit this invocation asked for failed).
    let rendered_real = set.tables.iter().any(|t| t.id != "failures");
    if failures.is_empty() && !store_failed {
        ExitCode::from(exit::CLEAN)
    } else if rendered_real {
        ExitCode::from(exit::PARTIAL)
    } else {
        ExitCode::from(exit::TOTAL)
    }
}
