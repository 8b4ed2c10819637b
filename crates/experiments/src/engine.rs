//! The parallel experiment engine: a scoped-thread worker pool over a job
//! graph of `(profile, simulation)` jobs, plus a [`SuiteCache`] so no
//! identical suite is ever simulated twice in one process.
//!
//! # Why this exists
//!
//! The paper's methodology already collapses the *configuration* axis: one
//! simulation pass with a bank of bystander filters yields results for
//! every configuration at once. What remains is the *application* axis —
//! ten independent suite members per run, and `jetty-repro all` needs
//! several independent suites (the 4-way base run, the 8-way run, the
//! non-subblocked run, and two ablation banks). Every one of those
//! simulations is a pure function of `(profile, RunOptions)`, so they are
//! embarrassingly parallel; the engine flattens them into one job list and
//! drains it with a fixed pool of scoped threads.
//!
//! # Simulate once, observe many
//!
//! Because filters are bystanders, the bank is not part of the simulated
//! *platform*. Within one [`Engine::run_suites`] batch the engine groups
//! the fresh requests by every [`RunOptions`] field except `specs` and
//! simulates each platform once, with the union of the group's banks
//! (deduplicated, in first-requested order); each suite's reports are
//! then projected back out in its own bank order. This is the sweep's
//! "filter axis is free" economy ([`crate::sweep`]) made the engine's
//! general rule: `jetty-repro all` runs its 4-way base suite and both
//! ablation suites as one simulation of a 27-filter bank (5 suites, 3
//! simulations). Suite identity is unaffected — the cache key, the error
//! memo, [`RunOptions::id`], store records and the failures table stay
//! per suite — and a suite a `JETTY_FAULT` spec names is never folded
//! ([`crate::fault`]), so an injected fault hits exactly that suite.
//!
//! # Determinism
//!
//! A job's result depends only on its inputs — [`TraceGen`] is a pure
//! function of `(profile, cpus, scale)` and [`System`] of the trace and
//! options — so execution order cannot change any result. Jobs write into
//! pre-assigned slots and suites are reassembled in application order,
//! making engine output identical to the sequential path byte for byte;
//! with one thread the engine *is* the sequential path (no threads are
//! spawned at all).
//!
//! # Failure model
//!
//! Jobs are fallible: [`Engine::run_suites`] returns one
//! `Result<Arc<Vec<AppRun>>, JettyError>` per request, so one bad suite
//! degrades that suite instead of the whole batch. A job can fail by
//! injected fault ([`crate::fault`]), by blowing its deadline
//! ([`Engine::with_deadline`], checked at chunk boundaries through a
//! [`RunGate`]), or by panicking — panics are caught per job (in unwind
//! builds; the release profile aborts by design) and reported through the
//! job's result slot. When any job of a simulation fails, its shared
//! cancellation flag stops the sibling jobs at their next chunk boundary:
//! their partial results could never be used. A failed simulation fails
//! every suite it served, each under its own id with the same error kind
//! ([`JettyError::with_suite`]); the deadline stays a per-job budget, so
//! a folded job (a larger bank) gets the same budget as any other job.
//! Failed suites are never inserted into the [`SuiteCache`] — only
//! complete suites are cached — but the *error* is memoized, so a doomed
//! configuration is attempted once per process, not once per consumer.
//! Lock poisoning degrades too: every engine mutex guards data that is
//! structurally valid mid-panic (whole inserted values), so a poisoned
//! lock is recovered, not propagated.
//!
//! # Caching
//!
//! [`RunOptions`] is the cache key (hash/eq over `cpus`, `scale` bits,
//! `check`, the full filter bank, `non_subblocked`, and the coherence
//! `protocol`). Consumers ask for whole suites; [`Engine::run_suites`]
//! coalesces duplicate requests, simulates only the missing ones, and
//! hands out shared [`Arc`] results — which is what lets the declarative
//! sweep grid ([`crate::sweep`]) render every grid point from cache after
//! one prefetch batch.
//!
//! [`TraceGen`]: jetty_workloads::TraceGen
//! [`System`]: jetty_sim::System
//! [`RunGate`]: jetty_sim::RunGate

use std::collections::HashMap;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use jetty_sim::RunGate;
use jetty_workloads::apps;

use crate::error::JettyError;
use crate::fault::Faults;
use crate::runner::{run_app_gated, AppRun, AppTiming, RunOptions};

/// One finished-or-failed suite, as returned by [`Engine::run_suites`].
pub type SuiteResult = Result<Arc<Vec<AppRun>>, JettyError>;

/// Locks a mutex, recovering from poisoning: every engine mutex guards
/// data that stays structurally valid across a worker panic (values are
/// inserted whole), so the guard's contents are safe to reuse and a
/// poisoned lock must degrade to normal operation, not cascade the panic.
fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A shared, thread-safe cache of finished suite runs, keyed by the full
/// [`RunOptions`] (bank included). Only *complete* suites are ever
/// inserted, and poisoned locks are recovered (see the module's failure
/// model), so the cache cannot hold a partial result.
///
/// # Examples
///
/// ```
/// use jetty_experiments::engine::SuiteCache;
/// use jetty_experiments::RunOptions;
///
/// let cache = SuiteCache::new();
/// assert!(cache.get(&RunOptions::paper()).is_none());
/// assert_eq!(cache.len(), 0);
/// ```
#[derive(Debug, Default)]
pub struct SuiteCache {
    map: Mutex<HashMap<RunOptions, Arc<Vec<AppRun>>>>,
}

impl SuiteCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up a finished suite for exactly these options.
    pub fn get(&self, options: &RunOptions) -> Option<Arc<Vec<AppRun>>> {
        lock_recover(&self.map).get(options).cloned()
    }

    /// Stores a finished suite under its options, keeping the first
    /// insertion canonical: if another thread raced the same key in, its
    /// result wins and is returned, so every holder of this key ends up
    /// sharing one allocation.
    pub fn insert(&self, options: RunOptions, runs: Arc<Vec<AppRun>>) -> Arc<Vec<AppRun>> {
        lock_recover(&self.map).entry(options).or_insert(runs).clone()
    }

    /// Number of cached suites.
    pub fn len(&self) -> usize {
        lock_recover(&self.map).len()
    }

    /// `true` when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Monotonic counters describing what an [`Engine`] has done so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Requested suites simulated to completion (cache misses), counted
    /// per suite even when several were folded into one simulation.
    pub suites_executed: u64,
    /// Suite requests served from the cache (or coalesced with an
    /// identical request in the same batch, or answered from the
    /// memoized error of an earlier failed attempt).
    pub cache_hits: u64,
    /// Individual `(profile, simulation)` jobs attempted.
    pub jobs_executed: u64,
    /// Simulations attempted: one per platform of a batch, serving every
    /// suite folded onto it (faulted suites run alone).
    pub simulations_executed: u64,
    /// Suites whose execution failed (fault, deadline, or worker death);
    /// their errors are memoized, never their partial results.
    pub suites_failed: u64,
}

impl EngineStats {
    /// Cache hits as a fraction of all suite requests served so far, in
    /// `[0, 1]` (0 when nothing has been requested yet). The number the
    /// `jetty-repro sweep` stderr summary and the bench baseline report.
    pub fn hit_rate(&self) -> f64 {
        let requests = self.cache_hits + self.suites_executed + self.suites_failed;
        if requests == 0 {
            0.0
        } else {
            self.cache_hits as f64 / requests as f64
        }
    }
}

/// One `(application, simulation)` job in a batch's flattened graph.
#[derive(Clone, Copy)]
struct Job {
    sim: usize,
    app: usize,
}

/// One simulation of a batch: a platform run once with the union bank of
/// every suite folded onto it (see the module docs).
struct Simulation {
    /// The platform plus the union bank, deduplicated in first-requested
    /// order.
    options: RunOptions,
    /// Each served suite: its index in the batch, and for each entry of
    /// its own bank the position of that spec in the union bank.
    members: Vec<(usize, Vec<usize>)>,
    /// Whether later suites of the same platform may fold onto this one.
    foldable: bool,
}

impl Simulation {
    /// A simulation of `options`' platform serving suite `index` alone.
    fn new(index: usize, options: &RunOptions, foldable: bool) -> Self {
        let mut sim =
            Self { options: options.clone().with_specs(Vec::new()), members: Vec::new(), foldable };
        sim.serve(index, options);
        sim
    }

    /// Adds suite `index`: extends the union bank with the specs it lacks
    /// and records the suite's projection.
    fn serve(&mut self, index: usize, options: &RunOptions) {
        let bank = &mut self.options.specs;
        let projection = options
            .specs
            .iter()
            .map(|spec| {
                bank.iter().position(|s| s == spec).unwrap_or_else(|| {
                    bank.push(*spec);
                    bank.len() - 1
                })
            })
            .collect();
        self.members.push((index, projection));
    }
}

/// Folds a batch of distinct suites into simulations: suites whose
/// [`RunOptions`] agree on everything but the bank share one simulation
/// of their union bank. A suite a `JETTY_FAULT` spec targets runs alone,
/// exactly as requested, and so does every member of a fold whose union
/// happens to carry a targeted id — an injected fault must hit only the
/// suite it names.
fn fold(suites: &[RunOptions], faults: &Faults) -> Vec<Simulation> {
    let targeted = |options: &RunOptions| faults.is_active() && faults.targets_suite(&options.id());
    let mut sims: Vec<Simulation> = Vec::new();
    for (i, options) in suites.iter().enumerate() {
        let foldable = !targeted(options);
        let host = sims
            .iter_mut()
            .find(|sim| foldable && sim.foldable && same_platform(&sim.options, options));
        match host {
            Some(sim) => sim.serve(i, options),
            None => sims.push(Simulation::new(i, options, foldable)),
        }
    }
    if !faults.is_active() {
        return sims;
    }
    let mut unfolded = Vec::with_capacity(sims.len());
    for sim in sims {
        if sim.members.len() > 1 && targeted(&sim.options) {
            unfolded
                .extend(sim.members.iter().map(|&(i, _)| Simulation::new(i, &suites[i], false)));
        } else {
            unfolded.push(sim);
        }
    }
    unfolded
}

/// `true` when two suites simulate the same platform: every
/// [`RunOptions`] field but the filter bank agrees (the destructuring
/// makes a new field a compile error here until it is classified).
fn same_platform(a: &RunOptions, b: &RunOptions) -> bool {
    let RunOptions { cpus, scale, check, specs: _, non_subblocked, protocol } = a;
    *cpus == b.cpus
        && scale.to_bits() == b.scale.to_bits()
        && *check == b.check
        && *non_subblocked == b.non_subblocked
        && *protocol == b.protocol
}

/// A suite's runs cut out of its simulation's union-bank runs: the shared
/// platform data, and the reports at `projection`, in the suite's own
/// bank order.
fn project(runs: &[AppRun], projection: &[usize]) -> Vec<AppRun> {
    runs.iter()
        .map(|r| AppRun {
            profile: r.profile.clone(),
            footprint: r.footprint,
            refs: r.refs,
            run: r.run.clone(),
            reports: projection.iter().map(|&k| r.reports[k].clone()).collect(),
        })
        .collect()
}

/// What one job deposits in its slot: its outcome plus wall-clock.
type JobOutcome = (Result<(AppRun, AppTiming), JettyError>, Duration);

/// Wall-clock attribution for one completed *simulation*: the summed
/// wall-clock of its ten application jobs. One simulation may serve
/// several folded suites (listed in `suites`), so summing these never
/// counts shared work twice. Jobs of one simulation may run on different
/// workers, so this is cpu-time-like — with one worker it equals the
/// simulation's wall-clock exactly.
#[derive(Clone, Debug)]
pub struct SuiteTiming {
    /// The options the simulation ran under: the shared platform and the
    /// union bank of the suites it served.
    pub options: RunOptions,
    /// [`RunOptions::id`]s of the requested suites this simulation
    /// served, in request order.
    pub suites: Vec<String>,
    /// References simulated, summed over the jobs.
    pub refs: u64,
    /// Summed per-job wall-clock.
    pub elapsed: Duration,
    /// Jobs executed (one per application).
    pub jobs: usize,
    /// Time the jobs spent generating trace chunks (summed across jobs;
    /// part of `elapsed`).
    pub gen: Duration,
    /// Time the jobs spent simulating those chunks (summed across jobs;
    /// part of `elapsed`).
    pub sim: Duration,
    /// The host's detected SIMD level (`"scalar"`/`"avx2"`, from
    /// [`jetty_core::kernels::active_level`]) — a host fact, not a code
    /// path: replay is portable scalar code everywhere. Surfaced as the
    /// `kernel=` tag in `--timings` so timings from different hosts can
    /// be told apart.
    pub kernel: &'static str,
    /// Effective intra-run shard count the simulation's jobs replayed snoop
    /// work with (after the oversubscription cap against the worker
    /// count) — surfaced as the `shards=` tag in `--timings`.
    pub shards: usize,
}

/// The worker-pool executor. Built once per process (or per benchmark
/// iteration) with a fixed thread count; hand it [`RunOptions`] batches and
/// it returns per-suite results in request order.
///
/// # Examples
///
/// ```
/// use jetty_core::FilterSpec;
/// use jetty_experiments::engine::Engine;
/// use jetty_experiments::RunOptions;
///
/// let engine = Engine::new(2);
/// let options = RunOptions::paper()
///     .with_scale(0.001)
///     .with_specs(vec![FilterSpec::exclude(8, 2)]);
/// let suite = engine.run_suite(&options).expect("fault-free run");
/// assert_eq!(suite.len(), 10);
/// // A second identical request is a cache hit: same allocation.
/// let again = engine.run_suite(&options).expect("cache hit");
/// assert!(std::sync::Arc::ptr_eq(&suite, &again));
/// ```
#[derive(Debug)]
pub struct Engine {
    threads: usize,
    /// Requested intra-run shard count for per-node snoop replay (capped
    /// against `threads` and the host at execution time; see
    /// [`cap_shards`]). Shards never change results — only how the
    /// deferred filter-event replay inside each job is parallelised — so
    /// this is deliberately *not* part of the cache key.
    shards: usize,
    /// Per-job wall-clock budget; `None` = unbounded.
    deadline: Option<Duration>,
    cache: SuiteCache,
    /// Memoized errors of failed suites: one attempt per key per process.
    failed: Mutex<HashMap<RunOptions, JettyError>>,
    suites_executed: AtomicU64,
    cache_hits: AtomicU64,
    jobs_executed: AtomicU64,
    simulations_executed: AtomicU64,
    suites_failed: AtomicU64,
    /// Per-simulation timings accumulated since the last
    /// [`Engine::take_timings`] (completed simulations only; cache hits
    /// and failures record nothing).
    timings: Mutex<Vec<SuiteTiming>>,
}

impl Engine {
    /// Builds an engine with a fixed worker count and no job deadline.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1, "the engine needs at least one worker thread");
        Self {
            threads,
            shards: 1,
            deadline: None,
            cache: SuiteCache::new(),
            failed: Mutex::new(HashMap::new()),
            suites_executed: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            jobs_executed: AtomicU64::new(0),
            simulations_executed: AtomicU64::new(0),
            suites_failed: AtomicU64::new(0),
            timings: Mutex::new(Vec::new()),
        }
    }

    /// Builds an engine sized by [`Engine::default_threads`], with the
    /// [`Engine::default_deadline`] job budget and the
    /// [`Engine::default_shards`] intra-run shard count.
    pub fn with_default_threads() -> Self {
        Self::new(Self::default_threads())
            .with_deadline(Self::default_deadline())
            .with_shards(Self::default_shards())
    }

    /// Sets the per-job wall-clock budget (`None` = unbounded). Checked
    /// cooperatively at chunk boundaries, so expiry cancels a job within
    /// one chunk's worth of work and surfaces as
    /// [`JettyError::Deadline`] for its suite.
    pub fn with_deadline(mut self, deadline: Option<Duration>) -> Self {
        self.deadline = deadline;
        self
    }

    /// The default worker count: the `JETTY_THREADS` environment variable
    /// when set to a positive integer, otherwise the host's available
    /// parallelism (1 if that cannot be determined — logged once per
    /// process, since silently dropping to a single worker on a big host
    /// is worth knowing about).
    pub fn default_threads() -> usize {
        let env = std::env::var("JETTY_THREADS").ok();
        let available = thread::available_parallelism().ok().map(NonZeroUsize::get);
        let decision = resolve_default_threads(env.as_deref(), available);
        if let Some(v) = &decision.invalid_env {
            eprintln!(
                "warning: ignoring invalid JETTY_THREADS={v:?} (want a positive integer); \
                 using {} worker thread(s)",
                decision.threads
            );
        }
        if decision.host_fallback {
            static FALLBACK_WARNING: std::sync::Once = std::sync::Once::new();
            FALLBACK_WARNING.call_once(|| {
                eprintln!(
                    "warning: could not determine available parallelism; \
                     defaulting to 1 worker thread (set JETTY_THREADS or \
                     --threads to override)"
                );
            });
        }
        decision.threads
    }

    /// Sets the requested intra-run shard count: how many slices the
    /// per-node deferred snoop replay inside *each* job fans out to
    /// (clamped to at least 1). The request is capped against the worker
    /// count and the host at execution time (see `cap_shards`) so
    /// suites×shards never oversubscribes the machine. Shards are a pure
    /// performance knob: results are byte-identical at any count, which
    /// is also why they are not part of the suite cache key.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// The default intra-run shard count: the `JETTY_SHARDS` environment
    /// variable when set to a positive integer, otherwise 1 (serial
    /// replay). A garbage value is ignored with a one-line warning naming
    /// the bad value and the fallback chosen.
    pub fn default_shards() -> usize {
        let env = std::env::var("JETTY_SHARDS").ok();
        let decision = resolve_shards(env.as_deref());
        if let Some(v) = &decision.invalid_env {
            eprintln!(
                "warning: ignoring invalid JETTY_SHARDS={v:?} (want a positive integer); \
                 replaying snoop work in {} shard(s)",
                decision.shards
            );
        }
        decision.shards
    }

    /// The default per-job deadline: the `JETTY_DEADLINE_MS` environment
    /// variable when set to a positive integer of milliseconds, otherwise
    /// unbounded. A garbage value is ignored with a one-line warning
    /// naming the bad value and the fallback chosen.
    pub fn default_deadline() -> Option<Duration> {
        let env = std::env::var("JETTY_DEADLINE_MS").ok();
        let decision = resolve_deadline(env.as_deref());
        if let Some(v) = &decision.invalid_env {
            eprintln!(
                "warning: ignoring invalid JETTY_DEADLINE_MS={v:?} (want a positive integer \
                 of milliseconds); running without a job deadline"
            );
        }
        decision.deadline
    }

    /// The worker count this engine was built with.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The requested intra-run shard count (before the execution-time
    /// oversubscription cap).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The per-job deadline this engine applies, when one is set.
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// The suite cache (for inspection; normal use goes through
    /// [`Engine::run_suite`]).
    pub fn cache(&self) -> &SuiteCache {
        &self.cache
    }

    /// Drains the per-simulation timings accumulated since the last call
    /// (the `jetty-repro --timings` surface). Completed simulations only:
    /// cache hits and failed simulations record no timing.
    pub fn take_timings(&self) -> Vec<SuiteTiming> {
        std::mem::take(&mut *lock_recover(&self.timings))
    }

    /// Counters so far.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            suites_executed: self.suites_executed.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            jobs_executed: self.jobs_executed.load(Ordering::Relaxed),
            simulations_executed: self.simulations_executed.load(Ordering::Relaxed),
            suites_failed: self.suites_failed.load(Ordering::Relaxed),
        }
    }

    /// The memoized error of an earlier failed attempt at these options.
    fn failed_error(&self, options: &RunOptions) -> Option<JettyError> {
        lock_recover(&self.failed).get(options).cloned()
    }

    /// Runs (or fetches from cache) one full ten-application suite.
    pub fn run_suite(&self, options: &RunOptions) -> SuiteResult {
        self.run_suites(std::slice::from_ref(options))
            .pop()
            .unwrap_or_else(|| unreachable!("run_suites returns one result per request"))
    }

    /// Runs a batch of suites concurrently, returning per-suite results in
    /// request order.
    ///
    /// Requests already in the cache are served from it; duplicate
    /// requests within the batch are coalesced. Everything left is folded
    /// into one simulation per platform (see the module docs), flattened
    /// into one `(profile, simulation)` job list and drained by the worker
    /// pool, so the suites of `jetty-repro all` share a single pool and
    /// its three 4-way suites share one simulation.
    ///
    /// A failed suite comes back as `Err` without disturbing its batch
    /// mates; the error is memoized so later requests for the same key are
    /// answered without re-running a doomed configuration (one attempt per
    /// key per process — the cache itself only ever holds complete
    /// suites).
    ///
    /// The single-execution guarantee is per caller: if *external* threads
    /// share one engine and race identical requests, both may simulate,
    /// but the cache keeps the first finished result canonical, so every
    /// caller still receives the same `Arc` (results are deterministic
    /// either way — only work is duplicated).
    pub fn run_suites(&self, requests: &[RunOptions]) -> Vec<SuiteResult> {
        let mut fresh: Vec<RunOptions> = Vec::new();
        for options in requests {
            if self.cache.get(options).is_some()
                || self.failed_error(options).is_some()
                || fresh.contains(options)
            {
                self.cache_hits.fetch_add(1, Ordering::Relaxed);
            } else {
                fresh.push(options.clone());
            }
        }

        for (options, result) in fresh.iter().zip(self.execute(&fresh)) {
            match result {
                Ok(runs) => {
                    self.cache.insert(options.clone(), Arc::new(runs));
                    self.suites_executed.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) => {
                    lock_recover(&self.failed).insert(options.clone(), e);
                    self.suites_failed.fetch_add(1, Ordering::Relaxed);
                }
            }
        }

        // `get` after canonicalising `insert`: every caller of a key sees
        // one shared allocation, even if external threads raced us.
        requests
            .iter()
            .map(|options| match self.cache.get(options) {
                Some(runs) => Ok(runs),
                None => Err(self.failed_error(options).unwrap_or_else(|| {
                    JettyError::simulation(
                        options.id(),
                        "suite neither cached nor failed after execution (engine bug)",
                    )
                })),
            })
            .collect()
    }

    /// Runs one suite through the worker pool without consulting or
    /// filling the cache (the engine-backed replacement for the historical
    /// sequential [`run_suite`](crate::runner::run_suite); benchmarks use
    /// it to measure real simulation work).
    pub fn run_suite_uncached(&self, options: &RunOptions) -> Result<Vec<AppRun>, JettyError> {
        self.execute(std::slice::from_ref(options))
            .pop()
            .unwrap_or_else(|| unreachable!("execute returns one result per suite"))
    }

    /// Executes `suites`: folds them into simulations, drains the
    /// flattened `(profile, simulation)` job graph, and returns each
    /// suite's runs in application order, projected onto its own bank
    /// (or its simulation's first meaningful error, attributed to the
    /// suite), logging one [`SuiteTiming`] per completed simulation.
    fn execute(&self, suites: &[RunOptions]) -> Vec<Result<Vec<AppRun>, JettyError>> {
        if suites.is_empty() {
            return Vec::new();
        }
        let sims = fold(suites, crate::fault::active());
        let profiles = apps::all();
        let jobs: Vec<Job> = (0..sims.len())
            .flat_map(|sim| (0..profiles.len()).map(move |app| Job { sim, app }))
            .collect();

        // One cancellation flag per simulation: the first failing job
        // raises its simulation's flag, and sibling jobs observe it at
        // their next chunk boundary (their partial results could never
        // be used).
        let cancels: Vec<Arc<AtomicBool>> =
            sims.iter().map(|_| Arc::new(AtomicBool::new(false))).collect();
        let shards = cap_shards(
            self.shards,
            self.threads,
            thread::available_parallelism().ok().map(NonZeroUsize::get),
        );
        let run_job = |job: &Job| -> JobOutcome {
            let started = Instant::now();
            let options = &sims[job.sim].options;
            let gate = match self.deadline {
                Some(budget) => RunGate::with_budget(budget),
                None => RunGate::unbounded(),
            }
            .with_cancel(Arc::clone(&cancels[job.sim]));
            // Panics are contained per job in unwind builds (tests, dev);
            // the release profile aborts on panic by design, so there a
            // panic remains what it always was: a process-fatal bug.
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_app_gated(&profiles[job.app], options, shards, &gate)
            }))
            .unwrap_or_else(|payload| {
                Err(JettyError::simulation(
                    options.id(),
                    format!("worker panicked: {}", panic_message(payload.as_ref())),
                ))
            });
            if result.is_err() {
                cancels[job.sim].store(true, Ordering::Relaxed);
            }
            (result, started.elapsed())
        };

        let outcomes: Vec<JobOutcome> = if self.threads == 1 || jobs.len() == 1 {
            // The sequential path: same loop the pre-engine runner had,
            // on the caller's thread.
            jobs.iter().map(run_job).collect()
        } else {
            self.execute_parallel(&sims, &jobs, &run_job)
        };
        self.jobs_executed.fetch_add(jobs.len() as u64, Ordering::Relaxed);
        self.simulations_executed.fetch_add(sims.len() as u64, Ordering::Relaxed);

        let mut out: Vec<Result<Vec<AppRun>, JettyError>> =
            sims.iter().map(|_| Ok(Vec::new())).collect();
        let mut elapsed: Vec<Duration> = vec![Duration::ZERO; sims.len()];
        let mut splits: Vec<AppTiming> = vec![AppTiming::default(); sims.len()];
        for (job, (outcome, took)) in jobs.iter().zip(outcomes) {
            elapsed[job.sim] += took;
            match outcome {
                Ok((run, split)) => {
                    splits[job.sim].gen += split.gen;
                    splits[job.sim].sim += split.sim;
                    if let Ok(runs) = &mut out[job.sim] {
                        runs.push(run);
                    }
                }
                Err(e) => {
                    // First meaningful error wins: a Cancelled job only
                    // ever follows some other job's failure, so it never
                    // displaces the root cause.
                    let slot = &mut out[job.sim];
                    let replace = match slot {
                        Ok(_) => true,
                        Err(JettyError::Cancelled { .. }) => {
                            !matches!(e, JettyError::Cancelled { .. })
                        }
                        Err(_) => false,
                    };
                    if replace {
                        *slot = Err(e);
                    }
                }
            }
        }

        let kernel = jetty_core::kernels::active_level().name();
        let mut results: Vec<Option<Result<Vec<AppRun>, JettyError>>> =
            suites.iter().map(|_| None).collect();
        let mut log = lock_recover(&self.timings);
        for (((sim, outcome), took), split) in sims.into_iter().zip(out).zip(elapsed).zip(splits) {
            match outcome {
                Ok(runs) => {
                    let refs = runs.iter().map(|r| r.refs).sum();
                    for (i, projection) in &sim.members {
                        results[*i] = Some(Ok(project(&runs, projection)));
                    }
                    log.push(SuiteTiming {
                        suites: sim.members.iter().map(|&(i, _)| suites[i].id()).collect(),
                        refs,
                        options: sim.options,
                        elapsed: took,
                        jobs: profiles.len(),
                        gen: split.gen,
                        sim: split.sim,
                        kernel,
                        shards,
                    });
                }
                Err(e) => {
                    for &(i, _) in &sim.members {
                        results[i] = Some(Err(e.clone().with_suite(suites[i].id())));
                    }
                }
            }
        }
        results
            .into_iter()
            .map(|r| r.unwrap_or_else(|| unreachable!("every suite is served by one simulation")))
            .collect()
    }

    /// Drains `jobs` with a pool of scoped threads. Workers claim jobs
    /// through a shared atomic cursor and deposit outcomes (with per-job
    /// wall-clock) into the slot matching the job index, so assembly order
    /// is independent of completion order. A slot left empty — a worker
    /// that died without depositing, which catch_unwind makes unreachable
    /// in unwind builds — degrades to a per-job error, never a panic.
    fn execute_parallel(
        &self,
        sims: &[Simulation],
        jobs: &[Job],
        run_job: &(dyn Fn(&Job) -> JobOutcome + Sync),
    ) -> Vec<JobOutcome> {
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<JobOutcome>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
        thread::scope(|scope| {
            for _ in 0..self.threads.min(jobs.len()) {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(job) = jobs.get(i) else { break };
                    *lock_recover(&slots[i]) = Some(run_job(job));
                });
            }
        });
        slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                let outcome = slot.into_inner().unwrap_or_else(PoisonError::into_inner);
                outcome.unwrap_or_else(|| {
                    let options = &sims[jobs[i].sim].options;
                    (
                        Err(JettyError::simulation(
                            options.id(),
                            "worker died without depositing a result",
                        )),
                        Duration::ZERO,
                    )
                })
            })
            .collect()
    }
}

/// Best-effort text of a caught panic payload (`&str` or `String`
/// payloads cover `panic!` in practice).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&'static str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

/// Outcome of the default-thread-count resolution (pure; separated from
/// [`Engine::default_threads`] so the precedence rules are unit-testable
/// without mutating process environment or depending on the host).
#[derive(Clone, Debug, PartialEq, Eq)]
struct ThreadsDecision {
    /// The worker count to use.
    threads: usize,
    /// The `JETTY_THREADS` value, when present but not a positive integer
    /// (warned about, then ignored).
    invalid_env: Option<String>,
    /// `true` when available parallelism could not be determined and the
    /// count silently fell back to 1 (logged once per process).
    host_fallback: bool,
}

/// Precedence: a valid `JETTY_THREADS` wins; otherwise the host's
/// available parallelism; otherwise 1 (with `host_fallback` set).
fn resolve_default_threads(env: Option<&str>, available: Option<usize>) -> ThreadsDecision {
    let mut invalid_env = None;
    if let Some(v) = env {
        match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => {
                return ThreadsDecision { threads: n, invalid_env: None, host_fallback: false }
            }
            _ => invalid_env = Some(v.to_string()),
        }
    }
    match available {
        Some(n) => ThreadsDecision { threads: n, invalid_env, host_fallback: false },
        None => ThreadsDecision { threads: 1, invalid_env, host_fallback: true },
    }
}

/// Outcome of the default-shard-count resolution (pure, like
/// [`resolve_default_threads`]).
#[derive(Clone, Debug, PartialEq, Eq)]
struct ShardsDecision {
    /// The requested intra-run shard count.
    shards: usize,
    /// The `JETTY_SHARDS` value, when present but not a positive integer
    /// (warned about, then ignored).
    invalid_env: Option<String>,
}

/// A valid `JETTY_SHARDS` (positive integer) becomes the requested shard
/// count; anything else is 1 (serial replay), flagging the invalid value.
fn resolve_shards(env: Option<&str>) -> ShardsDecision {
    match env {
        None => ShardsDecision { shards: 1, invalid_env: None },
        Some(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => ShardsDecision { shards: n, invalid_env: None },
            _ => ShardsDecision { shards: 1, invalid_env: Some(v.to_string()) },
        },
    }
}

/// Caps a requested shard count against the engine's worker count so
/// `threads × shards` never oversubscribes the host: each of `threads`
/// concurrent jobs may fan its replay out to the returned count. With an
/// unknown host the request passes through (shards only ever change
/// speed, not results, so the worst case is oversubscription, not
/// corruption); the cap never drops below 1.
fn cap_shards(requested: usize, threads: usize, available: Option<usize>) -> usize {
    let requested = requested.max(1);
    match available {
        Some(cores) => requested.min((cores / threads.max(1)).max(1)),
        None => requested,
    }
}

/// Outcome of the default-deadline resolution (pure, like
/// [`resolve_default_threads`]).
#[derive(Clone, Debug, PartialEq, Eq)]
struct DeadlineDecision {
    /// The budget to apply; `None` = unbounded.
    deadline: Option<Duration>,
    /// The `JETTY_DEADLINE_MS` value, when present but not a positive
    /// integer (warned about, then ignored).
    invalid_env: Option<String>,
}

/// A valid `JETTY_DEADLINE_MS` (positive integer milliseconds) becomes
/// the budget; anything else is unbounded, flagging the invalid value.
fn resolve_deadline(env: Option<&str>) -> DeadlineDecision {
    match env {
        None => DeadlineDecision { deadline: None, invalid_env: None },
        Some(v) => match v.trim().parse::<u64>() {
            Ok(n) if n >= 1 => {
                DeadlineDecision { deadline: Some(Duration::from_millis(n)), invalid_env: None }
            }
            _ => DeadlineDecision { deadline: None, invalid_env: Some(v.to_string()) },
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::parse_fault_specs;
    use jetty_core::FilterSpec;

    /// Tiny bank + short traces so the whole module tests in seconds.
    fn quick(scale: f64) -> RunOptions {
        RunOptions::paper()
            .with_scale(scale)
            .with_specs(vec![FilterSpec::exclude(8, 2), FilterSpec::include(6, 5, 6)])
    }

    #[test]
    fn identical_options_run_the_suite_exactly_once() {
        let engine = Engine::new(2);
        let first = engine.run_suite(&quick(0.002)).unwrap();
        let second = engine.run_suite(&quick(0.002)).unwrap();
        assert!(Arc::ptr_eq(&first, &second), "second request must be served from cache");
        let stats = engine.stats();
        assert_eq!(stats.suites_executed, 1);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.jobs_executed, 10);
        assert_eq!(stats.suites_failed, 0);
        assert_eq!(engine.cache().len(), 1);
        assert_eq!(stats.hit_rate(), 0.5, "one hit out of two requests");
    }

    /// Asserts two suites' runs agree on everything a table reads.
    fn assert_same_runs(a: &[AppRun], b: &[AppRun], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}");
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.profile.abbrev, y.profile.abbrev, "{what}");
            assert_eq!((x.refs, x.footprint), (y.refs, y.footprint), "{what}");
            assert_eq!(x.run, y.run, "{what}: RunStats");
            assert_eq!(x.reports.len(), y.reports.len(), "{what}");
            for (p, q) in x.reports.iter().zip(&y.reports) {
                assert_eq!(p.label, q.label, "{what}");
                assert_eq!(p.spec, q.spec, "{what}");
                assert_eq!(
                    (p.probes, p.filtered, p.would_miss),
                    (q.probes, q.filtered, q.would_miss),
                    "{what}: {}",
                    p.label
                );
                assert_eq!(p.activities, q.activities, "{what}: {}", p.label);
                assert_eq!(p.arrays, q.arrays, "{what}: {}", p.label);
            }
        }
    }

    /// Three banks on one platform, overlapping in one spec and sharing
    /// IJ geometries, like the base and ablation suites of `all`.
    fn same_platform_banks() -> Vec<RunOptions> {
        let base = quick(0.002);
        vec![
            base.clone(),
            base.clone().with_specs(vec![
                FilterSpec::include(6, 5, 6),
                FilterSpec::hybrid_scalar(6, 5, 6, 16, 2),
            ]),
            base.with_specs(vec![
                FilterSpec::hybrid_scalar_eager(6, 5, 6, 16, 2),
                FilterSpec::exclude(8, 2),
            ]),
        ]
    }

    #[test]
    fn same_platform_suites_fold_into_one_simulation() {
        let suites = same_platform_banks();
        let engine = Engine::new(2);
        let results: Vec<_> = engine.run_suites(&suites).into_iter().map(Result::unwrap).collect();
        let stats = engine.stats();
        assert_eq!(stats.jobs_executed, 10, "one simulation, not three");
        assert_eq!(stats.simulations_executed, 1);
        assert_eq!(stats.suites_executed, 3, "every requested suite still counts");
        let timings = engine.take_timings();
        assert_eq!(timings.len(), 1, "one timing per simulation");
        assert_eq!(timings[0].suites, suites.iter().map(RunOptions::id).collect::<Vec<_>>());
        assert_eq!(timings[0].options.specs.len(), 4, "union bank, deduplicated");
        for (options, runs) in suites.iter().zip(&results) {
            let alone = Engine::new(1).run_suite_uncached(options).unwrap();
            assert_same_runs(runs, &alone, &options.id());
        }
        // Each suite is cached under its own key: a later batch hits.
        let again = engine.run_suites(&suites[1..2]).pop().unwrap().unwrap();
        assert!(Arc::ptr_eq(&again, &results[1]));
        assert_eq!(engine.stats().cache_hits, 1);
        assert_eq!(engine.stats().jobs_executed, 10);
    }

    #[test]
    fn faulted_suites_and_faulted_unions_run_alone() {
        let suites = same_platform_banks();
        let served = |faults: &Faults| -> Vec<Vec<usize>> {
            fold(&suites, faults)
                .iter()
                .map(|sim| sim.members.iter().map(|&(i, _)| i).collect())
                .collect()
        };
        let faults = |spec: String| Faults::from_specs(parse_fault_specs(&spec).unwrap());
        assert_eq!(served(&Faults::default()), vec![vec![0, 1, 2]]);
        for kind in ["suite-fail@", "suite-panic@"] {
            let faulted = faults(format!("{kind}{}", suites[1].id()));
            assert_eq!(served(&faulted), vec![vec![0, 2], vec![1]], "{kind}");
        }
        let slow = faults(format!("slow-suite@{}:5", suites[0].id()));
        assert_eq!(served(&slow), vec![vec![0], vec![1, 2]]);
        // A fault naming the union bank itself must not fire on the fold.
        let union = fold(&suites, &Faults::default()).remove(0).options;
        assert_eq!(served(&faults(format!("suite-fail@{}", union.id()))), [[0], [1], [2]]);
    }

    #[test]
    fn platform_differences_prevent_folding() {
        let base = quick(0.002);
        let other_bank = vec![FilterSpec::exclude(16, 2)];
        let mut checked = base.clone().with_specs(other_bank.clone());
        checked.check = true;
        let variants = [
            checked,
            base.clone().with_specs(other_bank.clone()).with_cpus(8),
            base.clone()
                .with_specs(other_bank.clone())
                .with_protocol(jetty_sim::ProtocolKind::Mesi),
            base.clone().with_specs(other_bank).with_non_subblocked(true),
        ];
        for variant in variants {
            let engine = Engine::new(2);
            let results = engine.run_suites(&[base.clone(), variant.clone()]);
            assert!(results.iter().all(Result::is_ok));
            let stats = engine.stats();
            assert_eq!(stats.simulations_executed, 2, "{}", variant.describe());
            assert_eq!(stats.jobs_executed, 20, "{}", variant.describe());
        }
    }

    #[test]
    fn a_failed_folded_simulation_fails_each_suite_under_its_own_id() {
        let suites = same_platform_banks();
        let engine = Engine::new(2).with_deadline(Some(Duration::ZERO));
        let results = engine.run_suites(&suites);
        let kinds: Vec<&str> = results.iter().map(|r| r.as_ref().unwrap_err().kind()).collect();
        assert!(kinds.iter().all(|k| *k == kinds[0]), "{kinds:?}");
        for (options, result) in suites.iter().zip(&results) {
            assert_eq!(result.as_ref().unwrap_err().suite(), Some(options.id().as_str()));
        }
        assert_eq!(engine.stats().suites_failed, 3);
        assert!(engine.cache().is_empty());
    }

    #[test]
    fn hit_rate_of_an_idle_engine_is_zero() {
        assert_eq!(EngineStats::default().hit_rate(), 0.0);
        let all_hits = EngineStats { cache_hits: 3, ..EngineStats::default() };
        assert_eq!(all_hits.hit_rate(), 1.0);
        let with_failures =
            EngineStats { cache_hits: 1, suites_failed: 1, ..EngineStats::default() };
        assert_eq!(with_failures.hit_rate(), 0.5, "failed attempts count as requests");
    }

    #[test]
    fn batch_coalesces_duplicates_like_the_all_command() {
        // `all` asks for the base suite once per consumer; the batch must
        // still simulate it once.
        let engine = Engine::new(2);
        let options = quick(0.002);
        let results = engine.run_suites(&[options.clone(), options.clone(), options]);
        assert_eq!(results.len(), 3);
        let results: Vec<_> = results.into_iter().map(Result::unwrap).collect();
        assert!(Arc::ptr_eq(&results[0], &results[1]));
        assert!(Arc::ptr_eq(&results[1], &results[2]));
        assert_eq!(engine.stats().suites_executed, 1);
        assert_eq!(engine.stats().cache_hits, 2);
    }

    #[test]
    fn differing_cpus_and_l2_variant_miss_the_cache() {
        let engine = Engine::new(2);
        let base = quick(0.002);
        let eight_way = base.clone().with_cpus(8);
        let mut nsb = base.clone();
        nsb.non_subblocked = true;
        engine.run_suites(&[base, eight_way, nsb]);
        let stats = engine.stats();
        assert_eq!(stats.suites_executed, 3, "each variant is a distinct key");
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(engine.cache().len(), 3);
    }

    #[test]
    fn differing_protocols_miss_the_cache() {
        use jetty_sim::ProtocolKind;
        let engine = Engine::new(2);
        let suites: Vec<RunOptions> =
            ProtocolKind::ALL.iter().map(|&p| quick(0.002).with_protocol(p)).collect();
        engine.run_suites(&suites);
        assert_eq!(engine.stats().suites_executed, 3, "each protocol is a distinct key");
        assert_eq!(engine.cache().len(), 3);
        // MOESI is the default: an explicit MOESI request hits the same key.
        assert!(Arc::ptr_eq(
            &engine.run_suite(&quick(0.002)).unwrap(),
            &engine.run_suite(&suites[0]).unwrap()
        ));
    }

    #[test]
    fn differing_scale_check_and_bank_miss_the_cache() {
        let engine = Engine::new(1);
        let base = quick(0.002);
        let mut checked = base.clone();
        checked.check = true;
        let rescaled = base.clone().with_scale(0.004);
        let rebanked = base.clone().with_specs(vec![FilterSpec::exclude(8, 2)]);
        engine.run_suites(&[base, checked, rescaled, rebanked]);
        assert_eq!(engine.stats().suites_executed, 4);
    }

    #[test]
    fn parallel_results_match_serial_in_order_and_content() {
        let options = quick(0.004);
        let serial = Engine::new(1).run_suite(&options).unwrap();
        let parallel = Engine::new(4).run_suite(&options).unwrap();
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(parallel.iter()) {
            assert_eq!(s.profile.abbrev, p.profile.abbrev, "application order must be preserved");
            assert_eq!(s.refs, p.refs);
            assert_eq!(s.run, p.run);
            assert_eq!(s.reports.len(), p.reports.len());
            for (sr, pr) in s.reports.iter().zip(p.reports.iter()) {
                assert_eq!(sr.label, pr.label);
                assert_eq!(sr.filtered, pr.filtered);
                assert_eq!(sr.would_miss, pr.would_miss);
                assert_eq!(sr.activities, pr.activities);
            }
        }
    }

    #[test]
    fn uncached_runs_do_not_touch_the_cache() {
        let engine = Engine::new(2);
        let runs = engine.run_suite_uncached(&quick(0.002)).unwrap();
        assert_eq!(runs.len(), 10);
        assert!(engine.cache().is_empty());
        assert_eq!(engine.stats().suites_executed, 0);
        assert_eq!(engine.stats().jobs_executed, 10);
    }

    #[test]
    fn more_threads_than_jobs_is_fine() {
        let engine = Engine::new(64);
        assert_eq!(engine.run_suite(&quick(0.002)).unwrap().len(), 10);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_is_rejected() {
        let _ = Engine::new(0);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(Engine::default_threads() >= 1);
    }

    #[test]
    fn an_expired_deadline_fails_the_suite_without_touching_the_cache() {
        for threads in [1, 3] {
            let engine = Engine::new(threads).with_deadline(Some(Duration::ZERO));
            let err = engine.run_suite(&quick(0.002)).unwrap_err();
            assert!(
                matches!(
                    err,
                    JettyError::Deadline { budget_ms: 0, .. } | JettyError::Cancelled { .. }
                ),
                "threads={threads}: {err}"
            );
            assert!(engine.cache().is_empty(), "a failed suite must never be cached");
            let stats = engine.stats();
            assert_eq!(stats.suites_failed, 1);
            assert_eq!(stats.suites_executed, 0);
            assert!(engine.take_timings().is_empty(), "failed suites record no timing");
        }
    }

    #[test]
    fn a_failed_suite_is_attempted_once_then_answered_from_the_error_memo() {
        let engine = Engine::new(2).with_deadline(Some(Duration::ZERO));
        let first = engine.run_suite(&quick(0.002)).unwrap_err();
        let jobs_after_first = engine.stats().jobs_executed;
        let second = engine.run_suite(&quick(0.002)).unwrap_err();
        assert_eq!(first.kind(), second.kind());
        let stats = engine.stats();
        assert_eq!(stats.jobs_executed, jobs_after_first, "no re-execution of a doomed key");
        assert_eq!(stats.suites_failed, 1);
        assert_eq!(stats.cache_hits, 1, "the memoized error serves the second request");
    }

    #[test]
    fn a_failing_suite_does_not_disturb_its_batch_mates() {
        // Same engine, one batch: a generous deadline lets the small
        // suite finish while the zero-budget engine variant proves
        // isolation. Here: fail one key via the memo, then batch it with
        // a healthy key.
        let doomed = quick(0.002);
        let healthy = quick(0.004);
        let strict = Engine::new(2).with_deadline(Some(Duration::ZERO));
        assert!(strict.run_suite(&doomed).is_err());
        // Re-request both through the same (still zero-deadline) engine:
        // the doomed key is answered from the memo; the healthy key fails
        // too (deadline) — so instead check batch isolation on a fresh
        // engine where only the memoized key fails.
        let engine = Engine::new(2);
        let results = engine.run_suites(&[healthy.clone(), doomed.clone()]);
        assert!(results[0].is_ok() && results[1].is_ok(), "fresh engine has no memo");
        assert_eq!(strict.run_suites(&[doomed]).pop().unwrap().unwrap_err().kind(), "deadline");
    }

    #[test]
    fn jetty_threads_override_takes_precedence() {
        // A valid override wins over any host parallelism.
        let d = resolve_default_threads(Some("6"), Some(64));
        assert_eq!(d, ThreadsDecision { threads: 6, invalid_env: None, host_fallback: false });
        // ...including when the host count is unknown (no fallback logged:
        // the override answered the question).
        let d = resolve_default_threads(Some(" 3 "), None);
        assert_eq!(d, ThreadsDecision { threads: 3, invalid_env: None, host_fallback: false });
    }

    #[test]
    fn invalid_override_falls_through_to_the_host() {
        for bad in ["0", "-2", "four", ""] {
            let d = resolve_default_threads(Some(bad), Some(8));
            assert_eq!(d.threads, 8, "JETTY_THREADS={bad:?}");
            assert_eq!(d.invalid_env.as_deref(), Some(bad));
            assert!(!d.host_fallback);
        }
    }

    #[test]
    fn unknown_parallelism_falls_back_to_one_and_says_so() {
        let d = resolve_default_threads(None, None);
        assert_eq!(d, ThreadsDecision { threads: 1, invalid_env: None, host_fallback: true });
        let d = resolve_default_threads(Some("nope"), None);
        assert_eq!(d.threads, 1);
        assert!(d.host_fallback);
        assert!(d.invalid_env.is_some());
    }

    #[test]
    fn no_override_uses_host_parallelism() {
        let d = resolve_default_threads(None, Some(12));
        assert_eq!(d, ThreadsDecision { threads: 12, invalid_env: None, host_fallback: false });
    }

    #[test]
    fn deadline_resolution_accepts_positive_millis_and_flags_garbage() {
        assert_eq!(resolve_deadline(None), DeadlineDecision { deadline: None, invalid_env: None });
        assert_eq!(
            resolve_deadline(Some("250")),
            DeadlineDecision { deadline: Some(Duration::from_millis(250)), invalid_env: None }
        );
        assert_eq!(resolve_deadline(Some(" 90 ")).deadline, Some(Duration::from_millis(90)));
        for bad in ["0", "-5", "soon", "", "1.5"] {
            let d = resolve_deadline(Some(bad));
            assert_eq!(d.deadline, None, "JETTY_DEADLINE_MS={bad:?}");
            assert_eq!(d.invalid_env.as_deref(), Some(bad));
        }
    }

    #[test]
    fn shard_resolution_accepts_positive_counts_and_flags_garbage() {
        assert_eq!(resolve_shards(None), ShardsDecision { shards: 1, invalid_env: None });
        assert_eq!(resolve_shards(Some("4")), ShardsDecision { shards: 4, invalid_env: None });
        assert_eq!(resolve_shards(Some(" 2 ")).shards, 2);
        for bad in ["0", "-3", "many", "", "1.5"] {
            let d = resolve_shards(Some(bad));
            assert_eq!(d.shards, 1, "JETTY_SHARDS={bad:?}");
            assert_eq!(d.invalid_env.as_deref(), Some(bad));
        }
    }

    #[test]
    fn shard_cap_prevents_oversubscription() {
        // One worker on an 8-core host: the full request fits.
        assert_eq!(cap_shards(4, 1, Some(8)), 4);
        // Four workers on the same host: each job gets at most two shards.
        assert_eq!(cap_shards(4, 4, Some(8)), 2);
        // More workers than cores: still at least one shard per job.
        assert_eq!(cap_shards(4, 16, Some(8)), 1);
        // Unknown host: the request passes through.
        assert_eq!(cap_shards(3, 2, None), 3);
        // A zero request is clamped up, never down.
        assert_eq!(cap_shards(0, 1, Some(8)), 1);
    }

    #[test]
    fn shard_count_does_not_change_suite_results() {
        let options = quick(0.004);
        let serial = Engine::new(1).run_suite(&options).unwrap();
        let sharded = Engine::new(1).with_shards(4).run_suite(&options).unwrap();
        assert_eq!(serial.len(), sharded.len());
        for (s, p) in serial.iter().zip(sharded.iter()) {
            assert_eq!(s.refs, p.refs);
            assert_eq!(s.run, p.run);
            assert_eq!(s.reports.len(), p.reports.len());
            for (sr, pr) in s.reports.iter().zip(p.reports.iter()) {
                assert_eq!(sr.filtered, pr.filtered);
                assert_eq!(sr.would_miss, pr.would_miss);
                assert_eq!(sr.activities, pr.activities);
            }
        }
    }

    #[test]
    fn env_override_reaches_default_shards_end_to_end() {
        std::env::set_var("JETTY_SHARDS", "3");
        let seen = Engine::default_shards();
        std::env::remove_var("JETTY_SHARDS");
        assert_eq!(seen, 3);
    }

    #[test]
    fn env_override_reaches_default_threads_end_to_end() {
        // Process-global env mutation: set, observe, restore. The only
        // other env-sensitive test in this binary tolerates any positive
        // count, so a transient override cannot break it.
        std::env::set_var("JETTY_THREADS", "5");
        let seen = Engine::default_threads();
        std::env::remove_var("JETTY_THREADS");
        assert_eq!(seen, 5);
    }

    #[test]
    fn env_override_reaches_default_deadline_end_to_end() {
        std::env::set_var("JETTY_DEADLINE_MS", "1234");
        let seen = Engine::default_deadline();
        std::env::remove_var("JETTY_DEADLINE_MS");
        assert_eq!(seen, Some(Duration::from_millis(1234)));
    }
}
