//! `jetty-repro` — regenerates every table and figure of the JETTY paper.
//!
//! Usage:
//!
//! ```text
//! jetty-repro [COMMANDS...] [--scale X] [--cpus N] [--threads N]
//!             [--format FMT] [--csv DIR] [--axis NAME=V1,V2] [--check]
//!             [--timings] [--store PATH] [--timing-band PCT]
//!             [--deadline-ms MS] [--strict]
//! ```
//!
//! One subcommand per exhibit of [`jetty_experiments::exhibits`] (the one
//! place an exhibit is added), plus `all` and the run-store commands;
//! [`commands`] is the authoritative list, also printed by `--help`.
//! Default: `all`. An invocation selects the named exhibits, prefetches
//! the suites they declare as one batch on a shared [`Engine`] with
//! `--threads` workers (default: available parallelism, or
//! `JETTY_THREADS`), builds each exhibit's [`TableData`] from the engine's
//! memo in paper order, and renders the [`ResultSet`] once with the
//! `--format` renderer (text, byte-identical to the historical output;
//! JSON; or CSV).
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

use std::env;
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::{Duration, Instant};

use jetty_experiments::engine::Engine;
use jetty_experiments::error::{exit, JettyError};
use jetty_experiments::exhibits::{Context, Exhibit};
use jetty_experiments::results::render::Format;
use jetty_experiments::results::{Cell, ResultSet, TableData};
use jetty_experiments::runner::{parse_scale, RunOptions};
use jetty_experiments::store::diff::{diff_runs, DiffOptions};
use jetty_experiments::store::{self, RunInfo, RunRef, RunStore};
use jetty_experiments::sweep::Axis;

/// Every recognised subcommand: `all`, the exhibits in the order `all`
/// prints them (the extensions last), then the run-store commands.
fn commands() -> Vec<&'static str> {
    let exhibits = Exhibit::ALL.map(Exhibit::name);
    ["all"].into_iter().chain(exhibits).chain(["runs", "diff"]).collect()
}

/// The `--help` text (stdout, exit 0 — distinct from the unknown-flag
/// error path, which goes to stderr and exits nonzero).
fn usage() -> String {
    format!(
        "jetty-repro [COMMANDS...] [--scale X] [--cpus N] [--threads N] \
         [--format FMT] [--csv DIR] [--axis NAME=V1,V2] [--check] [--timings] \
         [--store PATH] [--timing-band PCT] [--deadline-ms MS] [--strict]\n\
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
        commands().join(" ")
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

/// Parses the command line: the run to perform, or `None` for `--help`,
/// which short-circuits with success.
fn parse_args() -> Result<Option<Cli>, String> {
    let mut cli = Cli {
        commands: Vec::new(),
        scale: 1.0,
        cpus: 4,
        threads: None,
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
                cli.scale = parse_scale(&v)?;
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
            "--threads" => cli.threads = Some(positive(&mut args, "--threads", "thread count")?),
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
                cli.deadline_ms = Some(positive(&mut args, "--deadline-ms", "deadline")?);
            }
            "--strict" => cli.strict = true,
            "--help" | "-h" => return Ok(None),
            cmd if !cmd.starts_with('-') => {
                if pending_diff_refs > 0 {
                    pending_diff_refs -= 1;
                    cli.diff_refs.push(cmd.to_string());
                    continue;
                }
                if !commands().contains(&cmd) {
                    return Err(format!(
                        "unknown command: {cmd} (commands: {})",
                        commands().join(" ")
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
    Ok(Some(cli))
}

/// Reads the value of `flag` from `args` as a positive integer; `noun`
/// names what a value that does not parse was meant to be.
fn positive<T: FromStr + PartialOrd + From<u8>>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
    noun: &str,
) -> Result<T, String> {
    let v = args.next().ok_or(format!("{flag} needs a value"))?;
    let n: T = v.parse().map_err(|_| format!("bad {noun}: {v}"))?;
    if n < T::from(1) {
        return Err(format!("{flag} must be at least 1"));
    }
    Ok(n)
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

fn main() -> ExitCode {
    let cli = match parse_args() {
        Ok(Some(cli)) => cli,
        Ok(None) => {
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

    // The sweep grid: the default protocol × cpus comparison, reshaped by
    // any `--axis` flags (validated here so errors precede simulation).
    let mut ctx = Context::new(cli.scale, cli.cpus, cli.check);
    for (axis, values) in &cli.axes {
        if let Err(e) = ctx.grid.set_axis(*axis, values) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }

    // Select: the named exhibits, plus every member of `all` when `all` is
    // named, in the registry's order, each once.
    let named =
        |e: Exhibit| cli.commands.iter().any(|c| c == e.name() || (c == "all" && e.in_all()));
    let selected: Vec<Exhibit> = Exhibit::ALL.into_iter().filter(|&e| named(e)).collect();

    // Prefetch: every suite the selected exhibits read, as one concurrent
    // engine batch, so each build below renders from the cache. Repeated
    // keys stay in: the engine coalesces them and counts the repeats as
    // cache hits.
    let prefetch: Vec<RunOptions> = selected.iter().flat_map(|e| e.suites(&ctx)).collect();

    // Failed suites, in first-seen order, deduplicated by suite id (the
    // engine's error memo answers repeat requests with the same error, so
    // a suite that feeds several exhibits must still report once). Each
    // failure also gets one stderr line at the moment it is recorded.
    let mut failures: Vec<JettyError> = Vec::new();
    let mut record_failure = |e: JettyError| {
        let key = |e: &JettyError| e.suite().map(str::to_string).unwrap_or_else(|| e.to_string());
        if failures.iter().all(|seen| key(seen) != key(&e)) {
            eprintln!("error: {e}");
            failures.push(e);
        }
    };

    // Size the pool only when suites will actually run, so commands that
    // never simulate (and explicit `--threads`/`--deadline-ms`) skip the
    // env lookups. `suite_elapsed_ms` is what `--store` records as
    // `timing_ms` and `diff --timing-band` later compares.
    let mut engine = Engine::new(1);
    let mut suite_elapsed_ms: u64 = 0;
    if !prefetch.is_empty() {
        let deadline = cli.deadline_ms.map(Duration::from_millis).or_else(Engine::default_deadline);
        engine = Engine::new(cli.threads.unwrap_or_else(Engine::default_threads))
            .with_deadline(deadline);
        let started = Instant::now();
        for e in engine.run_suites(&prefetch).into_iter().filter_map(Result::err) {
            record_failure(e);
        }
        suite_elapsed_ms = started.elapsed().as_millis() as u64;
        let stats = engine.stats();
        let timings = engine.take_timings();
        let refs: u64 = timings.iter().map(|t| t.refs).sum();
        // Suites the commands consume vs simulations actually run: the
        // engine folds same-platform suites into one simulation. On this
        // fresh engine every distinct suite that succeeded executed once
        // (e.g. `all --cpus 8` makes the base and smp8 suites one key).
        eprintln!(
            "[engine: {} suites as {} simulations ({} jobs, {:.1}M refs) on {} threads, {:.1}s]",
            stats.suites_executed,
            stats.simulations_executed,
            stats.jobs_executed,
            refs as f64 / 1e6,
            engine.threads(),
            started.elapsed().as_secs_f64()
        );
        // Per-simulation wall-clock attribution (stderr only): lets perf
        // work blame time without external profilers. The prefetch runs
        // every simulation of the invocation, so this is all of them.
        if cli.timings {
            for t in &timings {
                eprintln!(
                    "[timing] simulation {}: {:.3}s across {} jobs (gen {:.3}s, sim {:.3}s) \
                     kernel={} suites={}",
                    t.options.describe(),
                    t.elapsed.as_secs_f64(),
                    t.jobs,
                    t.gen.as_secs_f64(),
                    t.sim.as_secs_f64(),
                    t.kernel,
                    t.suites.join(",")
                );
            }
        }
    }

    // Build: each selected exhibit in order, from the engine's memo.
    // Collect typed, render late: one renderer pass at the end produces
    // the whole stdout (the text renderer reproduces the historical
    // one-println!-per-table stream byte for byte). An exhibit whose suite
    // failed is skipped (its failure is already recorded above) and the
    // independent exhibits carry on.
    let mut set = ResultSet::new();
    let mut sweep_build = None;
    for exhibit in &selected {
        let before = engine.stats();
        for table in exhibit.build(&engine, &ctx) {
            match table {
                Ok(table) => set.push(table),
                Err(e) => record_failure(e),
            }
        }
        if *exhibit == Exhibit::Sweep {
            sweep_build = Some((before, engine.stats()));
        }
    }
    if let Some((before, after)) = sweep_build {
        // The grid's own cache economics: its suites are requested once by
        // the prefetch and the build reads one cached suite per point, so
        // the hit rate is points / (points + suites) whatever else the
        // invocation runs. Other exhibits' requests are left out, even
        // where they share the grid's keys.
        let suites = ctx.grid.suites(cli.check).len() as u64;
        let hits = after.cache_hits - before.cache_hits;
        let requests = suites + after.requests() - before.requests();
        eprintln!(
            "[sweep] grid {} -> {} points over {suites} suites; engine cache: {hits} hits / \
             {requests} requests (hit rate {:.1}%)",
            ctx.grid.describe(),
            ctx.grid.points().len(),
            100.0 * hits as f64 / requests.max(1) as f64,
        );
    }

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
            options: ctx.base().id(),
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
