//! `perfbench` — drives the JETTY reproduction from outside, through the
//! public functions of each layer, and prints one JSON line per run.
//!
//! ```text
//! perfbench batch --workload NAME [--scale X] --out DIR
//! perfbench trace --workload NAME [--scale X] [--seed N] --out DIR
//! ```
//!
//! `batch` is one closed batch with tracing off: it times the construction
//! of every job's `TraceGen` + `System` (the set-up), then one
//! `Engine::run_suites` call at `nproc` threads, the exhibit functions,
//! `Renderer::render_set` and `RunStore::append`. `trace` runs the same
//! batch once more, then drives every job serially through
//! `TraceGen::{new,fill_chunk}` and `System::{new,run_chunk}` with
//! single-family twin banks to split host time by layer, and writes the
//! spans it recorded to `DIR`. `run.py` aggregates both and checks the
//! output digests.

mod digest;
mod host;
mod spans;
mod workload;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use jetty_core::FilterSpec;
use jetty_experiments::results::json::{fmt_f64, quote};
use jetty_experiments::results::render::{Renderer, TextRenderer};
use jetty_experiments::runner::run_app_gated;
use jetty_experiments::store::{self, RunInfo, RunStore};
use jetty_experiments::{AppRun, Engine, RunOptions};
use jetty_sim::{RunGate, System, SystemConfig};
use jetty_workloads::{apps, AppProfile, TraceGen};

use spans::Tracer;
use workload::Workload;

/// Set-up passes per batch process; the median of all of a run's passes is
/// its `setup_s`. One pass is a few milliseconds, so several are needed
/// for a steady median.
const SETUP_REPS: usize = 7;

struct Args {
    mode: String,
    workload: Workload,
    scale: f64,
    /// 0 = every application's calibrated `AppProfile::seed`.
    seed: u64,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mode = args.next().ok_or("usage: perfbench <batch|trace> --workload NAME --out DIR")?;
    if mode != "batch" && mode != "trace" {
        return Err(format!("unknown mode {mode:?} (want batch or trace)"));
    }
    let (mut workload, mut scale, mut seed, mut out) = (None, None, 0u64, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!(
                    "unknown workload {value:?} (want paper-all, protocol-grid or checked-paper)"
                ))?)
            }
            "--scale" => {
                let x: f64 = value.parse().map_err(|_| format!("bad scale {value:?}"))?;
                if !(x > 0.0 && x.is_finite()) {
                    return Err(format!("scale must be positive, got {value}"));
                }
                scale = Some(x);
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--out" => out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        mode,
        workload,
        scale: scale.unwrap_or(workload::DEFAULT_SCALE),
        seed,
        out: out.ok_or("--out is required")?,
    })
}

/// The `SystemConfig` the runner derives from `RunOptions` (the runner's
/// own helper is private). A divergence shows up as a traced-vs-runner
/// digest mismatch, never as a silently different measurement.
fn system_config(options: &RunOptions) -> SystemConfig {
    let mut config = if options.non_subblocked {
        SystemConfig::paper_4way_nsb()
    } else {
        SystemConfig::paper_4way()
    };
    config.cpus = options.cpus;
    config.protocol = options.protocol;
    if !options.check {
        config = config.without_checks();
    }
    config
}

/// The ten application profiles; a non-zero `seed` perturbs every
/// calibrated `AppProfile::seed` (traced runs only — the engine always
/// builds the calibrated profiles).
fn profiles(seed: u64) -> Vec<AppProfile> {
    let mut profiles = apps::all();
    if seed != 0 {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        for p in &mut profiles {
            p.seed ^= z ^ (z >> 31);
        }
    }
    profiles
}

/// Times constructing every job's `TraceGen` + `System` once.
fn setup_pass(suites: &[RunOptions]) -> Duration {
    let profiles = apps::all();
    let mut total = Duration::ZERO;
    for options in suites {
        let config = system_config(options);
        for profile in &profiles {
            let start = Instant::now();
            let generator = TraceGen::new(profile, options.cpus, options.scale);
            let system = System::new(config, &options.specs);
            total += start.elapsed();
            std::hint::black_box((&generator, &system));
        }
    }
    total
}

/// One closed batch through the engine, exhibits, renderer and store.
struct Batch {
    wall: Duration,
    cpu: Duration,
    run_suites: Duration,
    build: Duration,
    render: Duration,
    append: Duration,
    output_bytes: usize,
    record_bytes: u64,
    threads: usize,
    /// Effective intra-run shard count (after the engine's cap).
    shards: usize,
    refs: u64,
    /// Per requested suite: id and digest, or the error.
    suites: Vec<(String, Result<String, String>)>,
    render_digest: String,
    /// Σ `SuiteTiming` gen + sim.
    timing_gen_sim: Duration,
    stats: jetty_experiments::EngineStats,
    runs: Vec<Option<std::sync::Arc<Vec<AppRun>>>>,
}

fn run_batch(
    workload: Workload,
    scale: f64,
    out: &Path,
    git_rev: &str,
    tracer: &mut Tracer,
    parent: usize,
) -> Batch {
    let suites = workload.suites(scale);
    let threads = host::nproc();
    let store_path = out.join(format!("store-{}-{}.jstore", workload.name(), std::process::id()));
    let _ = std::fs::remove_file(&store_path);

    let cpu_start = host::process_cpu_time();
    let started = Instant::now();
    let engine = Engine::new(threads).with_shards(Engine::default_shards());
    let results = engine.run_suites(&suites);
    let ran = Instant::now();
    let run_suites = tracer.record("Engine::run_suites", parent, started, ran);
    let set = workload.exhibits(&engine, scale);
    let built = Instant::now();
    let build = tracer.record("exhibits", parent, ran, built);
    let rendered = TextRenderer.render_set(&set);
    let render_done = Instant::now();
    let render = tracer.record("Renderer::render_set", parent, built, render_done);
    let info = RunInfo {
        unix_time: store::unix_time_now(),
        git_rev: git_rev.to_owned(),
        command: workload.name().to_owned(),
        options: suites[0].id(),
        timing_ms: run_suites.as_millis() as u64,
    };
    let appended = RunStore::open(&store_path).append(&info, &set);
    let done = Instant::now();
    let append = tracer.record("RunStore::append", parent, render_done, done);
    let cpu = host::process_cpu_time() - cpu_start;
    let wall = done - started;

    let record_bytes = match appended {
        Ok(_) => std::fs::metadata(&store_path).map_or(0, |m| m.len()),
        Err(e) => panic!("run store append failed: {e}"),
    };
    let _ = std::fs::remove_file(&store_path);
    let timings = engine.take_timings();
    let refs = results.iter().flatten().flat_map(|runs| runs.iter()).map(|a| a.refs).sum();
    Batch {
        wall,
        cpu,
        run_suites,
        build,
        render,
        append,
        output_bytes: rendered.len(),
        record_bytes,
        threads,
        shards: timings.first().map_or(1, |t| t.shards),
        refs,
        suites: suites
            .iter()
            .zip(&results)
            .map(|(o, r)| {
                (o.id(), r.as_ref().map(|runs| digest::suite(runs)).map_err(|e| e.to_string()))
            })
            .collect(),
        render_digest: digest::hex(rendered.as_bytes()),
        timing_gen_sim: timings.iter().map(|t| t.gen + t.sim).sum(),
        stats: engine.stats(),
        runs: results.into_iter().map(Result::ok).collect(),
    }
}

/// A flat JSON object written in insertion order.
#[derive(Default)]
struct Obj(String);

impl Obj {
    fn raw(mut self, key: &str, value: impl std::fmt::Display) -> Self {
        let sep = if self.0.is_empty() { "" } else { ", " };
        let _ = write!(self.0, "{sep}{}: {value}", quote(key));
        self
    }
    fn num(self, key: &str, value: f64) -> Self {
        self.raw(key, fmt_f64(value))
    }
    fn str(self, key: &str, value: &str) -> Self {
        self.raw(key, quote(value))
    }
    fn done(self) -> String {
        format!("{{{}}}", self.0)
    }
}

fn facts(args: &Args, batch: &Batch, git_rev: &str) -> String {
    Obj::default()
        .str("workload", args.workload.name())
        .num("scale", args.scale)
        .raw("nproc", host::nproc())
        .str("kernel", jetty_core::kernels::active_level().name())
        .str("git_rev", git_rev)
        .raw("engine_threads", batch.threads)
        .raw("engine_shards", batch.shards)
        .str("engine_seed", "calibrated")
        .done()
}

fn suites_json(batch: &Batch) -> String {
    let items: Vec<String> = batch
        .suites
        .iter()
        .map(|(id, r)| match r {
            Ok(d) => Obj::default().str("id", id).str("digest", d).done(),
            Err(e) => Obj::default().str("id", id).str("error", e).done(),
        })
        .collect();
    format!("[{}]", items.join(", "))
}

fn batch_mode(args: &Args, git_rev: &str) -> String {
    let suites = args.workload.suites(args.scale);
    let setup: Vec<String> =
        (0..SETUP_REPS).map(|_| fmt_f64(setup_pass(&suites).as_secs_f64())).collect();
    let mut tracer = Tracer::new();
    let root = tracer.open(format!("workload:{}", args.workload.name()), None);
    let batch = run_batch(args.workload, args.scale, &args.out, git_rev, &mut tracer, root);
    Obj::default()
        .str("mode", "batch")
        .raw("facts", facts(args, &batch, git_rev))
        .raw("setup_s", format!("[{}]", setup.join(", ")))
        .num("wall_s", batch.wall.as_secs_f64())
        .num("cpu_s", batch.cpu.as_secs_f64())
        .raw("refs", batch.refs)
        .raw("peak_rss_kib", host::peak_rss_kib())
        .raw("suites", suites_json(&batch))
        .str("render_digest", &batch.render_digest)
        .done()
}

/// Host time of the traced jobs, split by layer call.
#[derive(Default)]
struct JobSplit {
    gen_new: Duration,
    gen: Duration,
    sim_new: Duration,
    full: Duration,
    null: Duration,
    family: [Duration; 4],
    reference: Duration,
}

const FAMILIES: [&str; 4] = ["ej", "vej", "ij", "hj"];

/// Index into [`FAMILIES`] of a filter spec's family.
fn family_of(spec: &FilterSpec) -> Option<usize> {
    match spec {
        FilterSpec::Exclude(_) => Some(0),
        FilterSpec::VectorExclude(_) => Some(1),
        FilterSpec::Include(_) => Some(2),
        FilterSpec::Hybrid(_) => Some(3),
        FilterSpec::Null => None,
    }
}

/// The bank entries of one filter family; a family the bank lacks replays
/// `[Null]`, so its twin measures the resolution of the twin subtraction
/// instead of reading a constant 0.
fn family_bank(specs: &[FilterSpec], family: usize) -> Vec<FilterSpec> {
    let bank: Vec<FilterSpec> =
        specs.iter().copied().filter(|s| family_of(s) == Some(family)).collect();
    if bank.is_empty() {
        vec![FilterSpec::Null]
    } else {
        bank
    }
}

/// Streams a whole trace through `system` chunk by chunk, recording one
/// span per call; returns (gen, sim) host time.
fn drive(
    tracer: &mut Tracer,
    parent: usize,
    mut generator: TraceGen,
    system: &mut System,
) -> (Duration, Duration) {
    let mut buf = Vec::with_capacity(System::CHUNK_LEN);
    let (mut gen, mut sim) = (Duration::ZERO, Duration::ZERO);
    loop {
        let start = Instant::now();
        let more = generator.fill_chunk(&mut buf, System::CHUNK_LEN);
        gen += tracer.record("TraceGen::fill_chunk", parent, start, Instant::now());
        if !more {
            return (gen, sim);
        }
        let start = Instant::now();
        system.run_chunk(&buf);
        sim += tracer.record("System::run_chunk", parent, start, Instant::now());
    }
}

/// Runs one job untraced through the runner (the reference), then traced
/// with the full bank, then once per twin bank from a cloned generator.
/// Adds the job's host time to `split`.
fn trace_job(
    tracer: &mut Tracer,
    parent: usize,
    profile: &AppProfile,
    options: &RunOptions,
    split: &mut JobSplit,
) -> (AppRun, AppRun) {
    let config = system_config(options);

    let start = Instant::now();
    let (reference, timing) = run_app_gated(profile, options, 1, &RunGate::unbounded())
        .unwrap_or_else(|e| panic!("untraced reference job failed: {e}"));
    tracer.record("runner::run_app_gated", parent, start, Instant::now());
    split.reference += timing.gen + timing.sim;

    let start = Instant::now();
    let generator = TraceGen::new(profile, options.cpus, options.scale);
    split.gen_new += tracer.record("TraceGen::new", parent, start, Instant::now());
    let twin_source = generator.clone();
    let start = Instant::now();
    let mut system = System::new(config, &options.specs);
    split.sim_new += tracer.record("System::new", parent, start, Instant::now());
    let (footprint, refs) = (generator.footprint(), generator.len());
    let pass = tracer.open("pass:full", Some(parent));
    let (gen, sim) = drive(tracer, pass, generator, &mut system);
    split.gen += gen;
    split.full += sim;
    tracer.close(pass);
    let traced = AppRun {
        profile: profile.clone(),
        footprint,
        refs,
        run: system.run_stats(),
        reports: system.filter_reports(),
    };
    drop(system);

    let mut twin = |name: &str, bank: &[FilterSpec]| {
        let mut system = System::new(config, bank);
        let pass = tracer.open(format!("pass:{name}"), Some(parent));
        let (_, sim) = drive(tracer, pass, twin_source.clone(), &mut system);
        tracer.close(pass);
        sim
    };
    split.null += twin("null", &[FilterSpec::Null]);
    for (k, name) in FAMILIES.iter().enumerate() {
        split.family[k] += twin(name, &family_bank(&options.specs, k));
    }
    (reference, traced)
}

fn trace_mode(args: &Args, git_rev: &str) -> String {
    let mut tracer = Tracer::new();
    let root = tracer.open(format!("workload:{}", args.workload.name()), None);
    let batch = run_batch(args.workload, args.scale, &args.out, git_rev, &mut tracer, root);

    let profiles = profiles(args.seed);
    let mut total = JobSplit::default();
    let (mut refs, mut snoops, mut would_miss, mut transactions) = (0u64, 0u64, 0u64, 0u64);
    let (mut probes, mut filtered) = (0u64, 0u64);
    let (mut jobs, mut mismatches) = (0u64, Vec::new());
    for (suite_index, options) in args.workload.suites(args.scale).iter().enumerate() {
        let suite = tracer.open(format!("suite:{}", options.id()), Some(root));
        for (app, profile) in profiles.iter().enumerate() {
            let job = tracer.open(format!("job:{}", profile.abbrev), Some(suite));
            let (reference, traced) = trace_job(&mut tracer, job, profile, options, &mut total);
            tracer.close(job);
            jobs += 1;
            let traced_digest = digest::app_run(&traced);
            let engine_digest = batch.runs[suite_index].as_ref().map(|r| digest::app_run(&r[app]));
            if traced_digest != digest::app_run(&reference)
                || (args.seed == 0 && engine_digest.as_deref() != Some(&traced_digest))
            {
                mismatches.push(format!("{}/{}", options.id(), profile.abbrev));
            }
            refs += traced.refs;
            snoops += traced.run.nodes.snoops_seen;
            would_miss += traced.run.nodes.snoop_would_miss;
            transactions += traced.run.system.transactions();
            probes += traced.reports.iter().map(|r| r.probes).sum::<u64>();
            filtered += traced.reports.iter().map(|r| r.filtered).sum::<u64>();
        }
        tracer.close(suite);
    }
    tracer.close(root);
    let spans_path =
        args.out.join(format!("spans-{}-seed{}.jsonl", args.workload.name(), args.seed));
    if let Err(e) = std::fs::write(&spans_path, tracer.to_jsonl()) {
        panic!("cannot write {}: {e}", spans_path.display());
    }

    let secs = |d: Duration| d.as_secs_f64();
    let diff = |a: Duration, b: Duration| a.as_secs_f64() - b.as_secs_f64();
    let per_ref_ns = |d: Duration| d.as_secs_f64() * 1e9 / refs.max(1) as f64;
    let replay = diff(total.full, total.null);
    let families: Vec<f64> = total.family.iter().map(|&f| diff(f, total.null)).collect();
    let traced_total = secs(total.gen + total.full);
    let overhead = traced_total / secs(total.reference) - 1.0;
    let stats = batch.stats;
    let requested = stats.cache_hits + stats.suites_executed + stats.suites_failed;
    let metrics: Vec<(String, f64, &str)> = vec![
        ("engine.run_suites_s".into(), secs(batch.run_suites), "s"),
        (
            "engine.busy_frac".into(),
            secs(batch.timing_gen_sim) / (batch.threads as f64 * secs(batch.run_suites)),
            "ratio",
        ),
        ("engine.suites_requested".into(), requested as f64, "count"),
        ("engine.suites_executed".into(), stats.suites_executed as f64, "count"),
        ("engine.cache_hits".into(), stats.cache_hits as f64, "count"),
        ("engine.jobs_executed".into(), stats.jobs_executed as f64, "count"),
        ("workloads.new_s".into(), secs(total.gen_new), "s"),
        ("workloads.gen_s".into(), secs(total.gen), "s"),
        ("workloads.gen_ns_per_ref".into(), per_ref_ns(total.gen), "ns"),
        ("sim.new_s".into(), secs(total.sim_new), "s"),
        ("sim.substrate_s".into(), secs(total.null), "s"),
        ("sim.substrate_ns_per_ref".into(), per_ref_ns(total.null), "ns"),
        ("sim.replay_s".into(), replay, "s"),
        ("sim.refs".into(), refs as f64, "count"),
        ("sim.snoops_seen".into(), snoops as f64, "count"),
        ("sim.snoop_would_miss".into(), would_miss as f64, "count"),
        ("sim.bus_transactions".into(), transactions as f64, "count"),
    ]
    .into_iter()
    .chain(FAMILIES.iter().zip(&families).map(|(f, &v)| (format!("core.replay_{f}_s"), v, "s")))
    .chain([
        ("core.probes".into(), probes as f64, "count"),
        ("core.filtered".into(), filtered as f64, "count"),
        ("core.filter_rate".into(), filtered as f64 / probes.max(1) as f64, "ratio"),
        ("experiments.build_s".into(), secs(batch.build), "s"),
        ("results.render_s".into(), secs(batch.render), "s"),
        ("results.output_bytes".into(), batch.output_bytes as f64, "bytes"),
        ("store.append_s".into(), secs(batch.append), "s"),
        ("store.record_bytes".into(), batch.record_bytes as f64, "bytes"),
        ("trace.overhead_frac".into(), overhead, "ratio"),
        ("trace.family_sum_frac".into(), families.iter().sum::<f64>() / replay, "ratio"),
    ])
    .collect();
    let mut m = Obj::default();
    for (name, value, unit) in &metrics {
        m = m.raw(name, Obj::default().num("value", *value).str("unit", unit).done());
    }
    let checks = Obj::default()
        .num("untraced_gen_sim_s", secs(total.reference))
        .num("traced_gen_substrate_replay_s", secs(total.gen) + secs(total.null) + replay)
        .num("family_replay_sum_s", families.iter().sum())
        .num("replay_s", replay)
        .done();
    let seed = if args.seed == 0 { "calibrated".to_owned() } else { args.seed.to_string() };
    Obj::default()
        .str("mode", "trace")
        .raw("facts", facts(args, &batch, git_rev))
        .str("trace_seed", &seed)
        .raw("jobs", jobs)
        .raw(
            "job_mismatches",
            format!("[{}]", mismatches.iter().map(|s| quote(s)).collect::<Vec<_>>().join(", ")),
        )
        .raw("metrics", m.done())
        .raw("checks", checks)
        .str("spans", &spans_path.display().to_string())
        .num("wall_s", batch.wall.as_secs_f64())
        .raw("refs", batch.refs)
        .raw("suites", suites_json(&batch))
        .str("render_digest", &batch.render_digest)
        .done()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("error: cannot create {}: {e}", args.out.display());
        return ExitCode::from(2);
    }
    let git_rev = store::git_rev();
    let line = if args.mode == "batch" {
        batch_mode(&args, &git_rev)
    } else {
        trace_mode(&args, &git_rev)
    };
    println!("{line}");
    ExitCode::SUCCESS
}
