//! The parallel experiment engine: runs batches of suites on a fixed pool
//! of workers and memoizes every suite's result, so no identical suite is
//! ever simulated twice in one process.
//!
//! # Plan, then execute
//!
//! Every simulation is a pure function of `(profile, RunOptions)`. The
//! engine's pure half, `plan.rs`, decides how a batch of distinct suites
//! runs. It folds suites that differ only in their filter bank into one
//! simulation of the union bank ("simulate once, observe many":
//! `jetty-repro all` runs 5 suites as 3 simulations), flattens the
//! simulations into `(profile, simulation)` jobs, orders them longest
//! trace first, and assembles the jobs' outcomes back into per-suite
//! results in application order. This module only executes a plan and
//! memoizes what it produced. Execution is one worker loop: each worker
//! claims the next job of the plan's order through a shared cursor and
//! deposits its outcome in that job's slot. With one worker the loop runs
//! on the caller's thread; otherwise its workers run under
//! [`std::thread::scope`]. Claim and completion order never reach the
//! output, which is byte-identical at any worker count.
//!
//! # Failure model
//!
//! Jobs are fallible: [`Engine::run_suites`] returns one
//! `Result<Arc<Vec<AppRun>>, JettyError>` per request, so one bad suite
//! degrades that suite instead of the whole batch. A job can fail by
//! injected fault ([`crate::fault`]), by blowing its deadline
//! ([`Engine::with_deadline`], checked at chunk boundaries through a
//! [`RunGate`]), or by panicking — panics are caught per job (every
//! profile unwinds, the release binary included) and reported through
//! the job's result slot. When any job of a simulation fails, its shared
//! cancellation flag stops the sibling jobs at their next chunk boundary:
//! their partial results could never be used. A failed simulation fails
//! every suite it served, each under its own id, with the first
//! non-cancellation error in job order ([`JettyError::with_suite`]); the
//! deadline stays a per-job budget, so a folded job (a larger bank) gets
//! the same budget as any other job. Lock poisoning degrades too: every
//! engine mutex guards data that is structurally valid mid-panic (whole
//! inserted values), so a poisoned lock is recovered, not propagated.
//!
//! # The memo
//!
//! [`RunOptions`] is the memo key (hash/eq over `cpus`, `scale` bits,
//! `check`, the full filter bank, `non_subblocked`, and the coherence
//! `protocol`). A suite enters the memo whole, once its batch is done: as
//! its shared [`Arc`] runs, or as its error, so a doomed configuration is
//! attempted once per process, not once per consumer. A partial suite is
//! never stored. Consumers ask for whole suites; [`Engine::run_suites`]
//! coalesces duplicate requests, executes only the missing ones, and
//! hands out the memoized results — which is what lets the declarative
//! sweep grid ([`crate::sweep`]) render every grid point from the memo
//! after one prefetch batch.
//!
//! [`RunGate`]: jetty_sim::RunGate

use std::collections::HashMap;
use std::num::NonZeroUsize;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use jetty_sim::RunGate;

use crate::error::JettyError;
use crate::plan::{plan, Job, JobOutcome};
use crate::runner::{run_app_gated, AppRun, RunOptions};

/// One finished-or-failed suite, as returned by [`Engine::run_suites`].
pub type SuiteResult = Result<Arc<Vec<AppRun>>, JettyError>;

/// Locks a mutex, recovering from poisoning: every engine mutex guards
/// data that stays structurally valid across a worker panic (values are
/// inserted whole), so the guard's contents are safe to reuse and a
/// poisoned lock must degrade to normal operation, not cascade the panic.
fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Monotonic counters describing what an [`Engine`] has done so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Requested suites simulated to completion (memo misses), counted
    /// per suite even when several were folded into one simulation.
    pub suites_executed: u64,
    /// Suite requests served from the memo (or coalesced with an
    /// identical request in the same batch), whether the memoized result
    /// is a suite's runs or the error of an earlier failed attempt.
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
    /// Suite requests served so far: memo hits, executions and failures.
    pub fn requests(&self) -> u64 {
        self.cache_hits + self.suites_executed + self.suites_failed
    }

    /// Cache hits as a fraction of all suite requests served so far, in
    /// `[0, 1]` (0 when nothing has been requested yet).
    pub fn hit_rate(&self) -> f64 {
        match self.requests() {
            0 => 0.0,
            requests => self.cache_hits as f64 / requests as f64,
        }
    }
}

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
    /// Inert: always 1, since every job replays its snoop work serially.
    /// ROADMAP item 1 deletes it once perfbench stops reading it.
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
/// // A second identical request is a memo hit: same allocation.
/// let again = engine.run_suite(&options).expect("memo hit");
/// assert!(std::sync::Arc::ptr_eq(&suite, &again));
/// ```
#[derive(Debug)]
pub struct Engine {
    threads: usize,
    /// Per-job wall-clock budget; `None` = unbounded.
    deadline: Option<Duration>,
    /// Every suite run so far, by its full options: its shared runs, or
    /// the error its one attempt ended in.
    memo: Mutex<HashMap<RunOptions, SuiteResult>>,
    suites_executed: AtomicU64,
    cache_hits: AtomicU64,
    jobs_executed: AtomicU64,
    simulations_executed: AtomicU64,
    suites_failed: AtomicU64,
    /// Per-simulation timings accumulated since the last
    /// [`Engine::take_timings`] (completed simulations only; memo hits
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
            deadline: None,
            memo: Mutex::default(),
            suites_executed: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            jobs_executed: AtomicU64::new(0),
            simulations_executed: AtomicU64::new(0),
            suites_failed: AtomicU64::new(0),
            timings: Mutex::default(),
        }
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
        let raw = std::env::var("JETTY_THREADS").ok();
        threads_on(raw.as_deref(), host_parallelism()).unwrap_or_else(|| {
            static FALLBACK_WARNING: std::sync::Once = std::sync::Once::new();
            FALLBACK_WARNING.call_once(|| {
                eprintln!(
                    "warning: could not determine available parallelism; \
                     defaulting to 1 worker thread (set JETTY_THREADS or \
                     --threads to override)"
                );
            });
            1
        })
    }

    /// Inert: returns the engine unchanged, since every job replays its
    /// snoop work serially. ROADMAP item 1 deletes it once perfbench
    /// stops calling it.
    pub fn with_shards(self, _shards: usize) -> Self {
        self
    }

    /// Inert: always 1, and reads no environment variable. ROADMAP item 1
    /// deletes it once perfbench stops calling it.
    pub fn default_shards() -> usize {
        1
    }

    /// The default per-job deadline: the `JETTY_DEADLINE_MS` environment
    /// variable when set to a positive integer of milliseconds, otherwise
    /// unbounded.
    pub fn default_deadline() -> Option<Duration> {
        let raw = std::env::var("JETTY_DEADLINE_MS").ok();
        let fallback = "running without a job deadline";
        positive_env("JETTY_DEADLINE_MS", raw.as_deref(), " of milliseconds", fallback)
            .map(Duration::from_millis)
    }

    /// The worker count this engine was built with.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Drains the per-simulation timings accumulated since the last call
    /// (the `jetty-repro --timings` surface). Completed simulations only:
    /// memo hits and failed simulations record no timing.
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

    /// Runs (or fetches from the memo) one full ten-application suite.
    pub fn run_suite(&self, options: &RunOptions) -> SuiteResult {
        self.run_suites(std::slice::from_ref(options))
            .pop()
            .unwrap_or_else(|| unreachable!("run_suites returns one result per request"))
    }

    /// Runs a batch of suites concurrently, returning per-suite results in
    /// request order.
    ///
    /// Requests already in the memo are served from it; duplicate
    /// requests within the batch are coalesced. Everything left is planned
    /// and executed as one batch (see the module docs), so the suites of
    /// `jetty-repro all` share a single pool and its three 4-way suites
    /// share one simulation.
    ///
    /// A failed suite comes back as `Err` without disturbing its batch
    /// mates; the error is memoized so later requests for the same key are
    /// answered without re-running a doomed configuration.
    ///
    /// The single-execution guarantee is per caller: if *external* threads
    /// share one engine and race identical requests, both may simulate,
    /// but the memo keeps the first stored result canonical, so every
    /// caller still receives the same `Arc` (results are deterministic
    /// either way — only work is duplicated).
    pub fn run_suites(&self, requests: &[RunOptions]) -> Vec<SuiteResult> {
        let mut fresh: Vec<RunOptions> = Vec::new();
        {
            let memo = lock_recover(&self.memo);
            for options in requests {
                if memo.contains_key(options) || fresh.contains(options) {
                    self.cache_hits.fetch_add(1, Ordering::Relaxed);
                } else {
                    fresh.push(options.clone());
                }
            }
        }

        let executed = self.execute(&fresh);
        let mut memo = lock_recover(&self.memo);
        for (options, result) in fresh.into_iter().zip(executed) {
            let counter = if result.is_ok() { &self.suites_executed } else { &self.suites_failed };
            counter.fetch_add(1, Ordering::Relaxed);
            memo.entry(options).or_insert(result.map(Arc::new));
        }
        requests
            .iter()
            .map(|options| {
                memo.get(options).cloned().unwrap_or_else(|| {
                    Err(JettyError::simulation(
                        options.id(),
                        "suite not memoized after execution (engine bug)",
                    ))
                })
            })
            .collect()
    }

    /// Runs one suite through the worker pool without consulting or
    /// filling the memo (the engine-backed body of the sequential
    /// [`run_suite`](crate::runner::run_suite)).
    pub fn run_suite_uncached(&self, options: &RunOptions) -> Result<Vec<AppRun>, JettyError> {
        self.execute(std::slice::from_ref(options))
            .pop()
            .unwrap_or_else(|| unreachable!("execute returns one result per suite"))
    }

    /// Executes a batch of distinct suites: plans it, drains the plan's
    /// jobs with the worker loop, and assembles each suite's result in
    /// request order, logging one [`SuiteTiming`] per completed
    /// simulation.
    fn execute(&self, suites: &[RunOptions]) -> Vec<Result<Vec<AppRun>, JettyError>> {
        if suites.is_empty() {
            return Vec::new();
        }
        let plan = plan(suites, crate::fault::active());
        // One cancellation flag per simulation: the first failing job
        // raises its simulation's flag, and sibling jobs observe it at
        // their next chunk boundary.
        let cancels: Vec<Arc<AtomicBool>> = plan.sims.iter().map(|_| Arc::default()).collect();
        let run_job = |job: &Job| -> JobOutcome {
            let started = Instant::now();
            let options = &plan.sims[job.sim].options;
            let gate = match self.deadline {
                Some(budget) => RunGate::with_budget(budget),
                None => RunGate::unbounded(),
            }
            .with_cancel(Arc::clone(&cancels[job.sim]));
            // Panics are contained per job: every profile unwinds, so a
            // panicking job fails its own suite, in the release binary too.
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_app_gated(&plan.profiles[job.app], options, 1, &gate)
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

        // The worker loop: claim the next job in plan order, deposit its
        // outcome in the job's own slot.
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<JobOutcome>>> =
            plan.jobs.iter().map(|_| Mutex::default()).collect();
        let work = || {
            while let Some(&i) = plan.order.get(next.fetch_add(1, Ordering::Relaxed)) {
                *lock_recover(&slots[i]) = Some(run_job(&plan.jobs[i]));
            }
        };
        match self.threads.min(plan.jobs.len()) {
            1 => work(),
            workers => thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(work);
                }
            }),
        }
        // A slot left empty — a worker that died without depositing,
        // which catch_unwind makes unreachable — degrades to a job error.
        let outcomes = slots
            .into_iter()
            .zip(&plan.jobs)
            .map(|(slot, job)| {
                slot.into_inner().unwrap_or_else(PoisonError::into_inner).unwrap_or_else(|| {
                    let suite = plan.sims[job.sim].options.id();
                    let error =
                        JettyError::simulation(suite, "worker died without depositing a result");
                    (Err(error), Duration::ZERO)
                })
            })
            .collect();
        self.jobs_executed.fetch_add(plan.jobs.len() as u64, Ordering::Relaxed);
        self.simulations_executed.fetch_add(plan.sims.len() as u64, Ordering::Relaxed);

        let (results, timings) = plan.assemble(outcomes);
        lock_recover(&self.timings).extend(timings);
        results
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

/// The host's available parallelism, when it can be determined.
fn host_parallelism() -> Option<usize> {
    thread::available_parallelism().ok().map(NonZeroUsize::get)
}

/// The one reader of the engine's positive-integer environment overrides.
/// `raw` is the value of `var`: unset gives `None`, as does a value that
/// is not a positive integer — that one with a one-line warning naming
/// the value and `fallback`, what runs instead. `unit` qualifies "a
/// positive integer" in the warning.
fn positive_env<T: FromStr + PartialOrd + From<u8>>(
    var: &str,
    raw: Option<&str>,
    unit: &str,
    fallback: &str,
) -> Option<T> {
    let raw = raw?;
    let n = raw.trim().parse::<T>().ok().filter(|n| *n >= T::from(1));
    if n.is_none() {
        eprintln!(
            "warning: ignoring invalid {var}={raw:?} (want a positive integer{unit}); {fallback}"
        );
    }
    n
}

/// [`Engine::default_threads`] given the `JETTY_THREADS` value and the
/// host's parallelism: a valid override wins, then the host. `None` when
/// neither answers — the caller falls back to 1 and says so.
fn threads_on(raw: Option<&str>, host: Option<usize>) -> Option<usize> {
    let fallback = format!("using {} worker thread(s)", host.unwrap_or(1));
    positive_env("JETTY_THREADS", raw, "", &fallback).or(host)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::tests::{quick, same_platform_banks};
    use jetty_core::FilterSpec;
    use jetty_sim::ProtocolKind;
    use jetty_workloads::apps;
    use proptest::prelude::*;

    /// Complete suites in the engine's memo (memoized errors excluded).
    fn cached(engine: &Engine) -> usize {
        lock_recover(&engine.memo).values().filter(|r| r.is_ok()).count()
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
        assert_eq!(cached(&engine), 1);
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
    fn platform_differences_prevent_folding() {
        let base = quick(0.002);
        let other_bank = vec![FilterSpec::exclude(16, 2)];
        let mut checked = base.clone().with_specs(other_bank.clone());
        checked.check = true;
        let variants = [
            checked,
            base.clone().with_specs(other_bank.clone()).with_cpus(8),
            base.clone().with_specs(other_bank.clone()).with_scale(0.003),
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
        assert_eq!(cached(&engine), 0);
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
        assert_eq!(cached(&engine), 3);
    }

    #[test]
    fn differing_protocols_miss_the_cache() {
        use jetty_sim::ProtocolKind;
        let engine = Engine::new(2);
        let suites: Vec<RunOptions> =
            ProtocolKind::ALL.iter().map(|&p| quick(0.002).with_protocol(p)).collect();
        engine.run_suites(&suites);
        assert_eq!(engine.stats().suites_executed, 3, "each protocol is a distinct key");
        assert_eq!(cached(&engine), 3);
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
    fn run_suites_returns_the_same_runs_at_one_and_two_threads() {
        // Three simulations whose traces differ in length, so the
        // longest-first claim order differs from the canonical one.
        let requests = [
            quick(0.002),
            quick(0.004).with_cpus(8),
            quick(0.003).with_protocol(jetty_sim::ProtocolKind::Mesi),
        ];
        let serial = Engine::new(1).run_suites(&requests);
        let parallel = Engine::new(2).run_suites(&requests);
        let order: Vec<_> = apps::all().iter().map(|p| p.abbrev).collect();
        for ((s, p), options) in serial.into_iter().zip(parallel).zip(&requests) {
            let (s, p) = (s.unwrap(), p.unwrap());
            assert_same_runs(&s, &p, &options.id());
            let got: Vec<_> = p.iter().map(|r| r.profile.abbrev).collect();
            assert_eq!(got, order, "{}: runs must come back in application order", options.id());
        }
    }

    #[test]
    fn uncached_runs_do_not_touch_the_cache() {
        let engine = Engine::new(2);
        let runs = engine.run_suite_uncached(&quick(0.002)).unwrap();
        assert_eq!(runs.len(), 10);
        assert!(lock_recover(&engine.memo).is_empty());
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
        // Cancel flags rise only after a job has failed, and with a zero
        // budget every first failure is the deadline: the suite must
        // report it, never a cancellation.
        for threads in [1, 3] {
            let engine = Engine::new(threads).with_deadline(Some(Duration::ZERO));
            let err = engine.run_suite(&quick(0.002)).unwrap_err();
            let want = JettyError::Deadline { suite: quick(0.002).id(), budget_ms: 0 };
            assert_eq!(err, want, "threads={threads}");
            assert_eq!(cached(&engine), 0, "a failed suite must never be cached");
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
        // A uniprocessor fails `SystemConfig::validate` in every job.
        let healthy = quick(0.002);
        let doomed = quick(0.002).with_cpus(1);
        let alone = Engine::new(1).run_suite_uncached(&healthy).unwrap();
        for threads in [1, 2] {
            let engine = Engine::new(threads);
            let results = engine.run_suites(&[healthy.clone(), doomed.clone()]);
            assert_same_runs(results[0].as_ref().unwrap(), &alone, "healthy batch mate");
            let err = results[1].as_ref().unwrap_err();
            assert_eq!(err.kind(), "simulation", "threads={threads}: {err}");
            assert_eq!(err.suite(), Some(doomed.id().as_str()));
            assert!(err.detail().contains("worker panicked"), "threads={threads}: {err}");
            let stats = engine.stats();
            assert_eq!((stats.suites_executed, stats.suites_failed), (1, 1), "threads={threads}");
        }
    }

    #[test]
    fn an_infinite_scale_fails_its_suite_promptly() {
        // Unchecked, it would size a u64::MAX-reference trace and never
        // finish; the generator's assertion fails each job at once.
        let options = RunOptions::paper().with_scale(f64::INFINITY);
        let err = Engine::new(2).run_suite(&options).unwrap_err();
        assert_eq!(err.kind(), "simulation", "{err}");
        assert_eq!(err.suite(), Some(options.id().as_str()));
        assert!(err.detail().contains("scale must be positive and finite"), "{err}");
    }

    #[test]
    fn jetty_threads_override_takes_precedence() {
        // A valid override wins over any host parallelism, including an
        // unknown one (no fallback: the override answered the question).
        assert_eq!(threads_on(Some("6"), Some(64)), Some(6));
        assert_eq!(threads_on(Some(" 3 "), None), Some(3));
    }

    #[test]
    fn invalid_override_falls_through_to_the_host() {
        for bad in ["0", "-2", "four", ""] {
            assert_eq!(threads_on(Some(bad), Some(8)), Some(8), "JETTY_THREADS={bad:?}");
        }
    }

    #[test]
    fn unknown_parallelism_falls_back_to_one_and_says_so() {
        // `None` is the caller's cue to log the fallback and use 1.
        assert_eq!(threads_on(None, None), None);
        assert_eq!(threads_on(Some("nope"), None), None);
    }

    #[test]
    fn no_override_uses_host_parallelism() {
        assert_eq!(threads_on(None, Some(12)), Some(12));
    }

    #[test]
    fn deadline_resolution_accepts_positive_millis_and_flags_garbage() {
        let resolve =
            |raw| positive_env::<u64>("JETTY_DEADLINE_MS", raw, " of milliseconds", "unbounded");
        assert_eq!(resolve(None), None);
        assert_eq!(resolve(Some("250")), Some(250));
        assert_eq!(resolve(Some(" 90 ")), Some(90));
        for bad in ["0", "-5", "soon", "", "1.5"] {
            assert_eq!(resolve(Some(bad)), None, "JETTY_DEADLINE_MS={bad:?}");
        }
    }

    /// The filters [`a_batch_equals_each_suite_run_alone`] draws banks
    /// from: every kind, two of them over one IJ geometry.
    fn spec_pool() -> [FilterSpec; 6] {
        [
            FilterSpec::exclude(8, 2),
            FilterSpec::exclude(16, 4),
            FilterSpec::vector_exclude(8, 2, 4),
            FilterSpec::include(6, 5, 6),
            FilterSpec::hybrid_scalar(6, 5, 6, 16, 2),
            FilterSpec::hybrid_scalar_eager(6, 5, 6, 8, 2),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Executing a batch's plan — fold, projection, worker loop —
        /// equals running each of its suites alone: random banks (empty
        /// and repeated specs included) split across suites on one to
        /// three platforms.
        #[test]
        fn a_batch_equals_each_suite_run_alone(
            suites in prop::collection::vec(
                (0usize..3, prop::collection::vec(0usize..6, 0..4)),
                1..5,
            ),
            threads in 1usize..3,
        ) {
            let base = RunOptions::paper().with_scale(0.001);
            let platforms = [
                base.clone(),
                base.clone().with_protocol(ProtocolKind::Mesi),
                base.with_non_subblocked(true),
            ];
            let requests: Vec<RunOptions> = suites
                .iter()
                .map(|(p, bank)| {
                    platforms[*p].clone().with_specs(bank.iter().map(|&k| spec_pool()[k]).collect())
                })
                .collect();
            let batch = Engine::new(threads).run_suites(&requests);
            for (options, result) in requests.iter().zip(&batch) {
                let alone = Engine::new(1).run_suite_uncached(options).unwrap();
                assert_same_runs(result.as_ref().unwrap(), &alone, &options.id());
            }
        }
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
