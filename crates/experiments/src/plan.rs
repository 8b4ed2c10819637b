//! The engine's pure half: how a batch of distinct suites is run, decided
//! before anything runs. [`plan`] folds the suites into simulations,
//! flattens those into `(simulation, application)` jobs and fixes the
//! order workers claim them in; [`Plan::assemble`] turns the jobs'
//! outcomes back into one result per suite. Nothing here simulates,
//! spawns a thread or takes a lock, so every rule is testable on
//! synthetic inputs. [`crate::engine`] executes plans and memoizes what
//! they produce.
//!
//! # Simulate once, observe many
//!
//! Because filters are bystanders, the bank is not part of the simulated
//! *platform*. Suites that agree on every [`RunOptions`] field except
//! `specs` share one simulation with the union of their banks
//! (deduplicated, in first-requested order); each suite's reports are
//! then projected back out in its own bank order. `jetty-repro all` runs
//! its 4-way base suite and both ablation suites as one simulation of a
//! 27-filter bank (5 suites, 3 simulations). Suite identity is unaffected:
//! the memo key, [`RunOptions::id`], store records and the failures table
//! stay per suite. A suite a `JETTY_FAULT` spec names is never folded
//! ([`crate::fault`]), so an injected fault hits exactly that suite.
//!
//! # Determinism
//!
//! A job's result depends only on its inputs, so claim order cannot
//! change any result. Jobs are claimed longest trace first, but outcomes
//! are indexed like [`Plan::jobs`] and assembled in that canonical order,
//! so suites come back in application order at any worker count.

use std::cmp::Reverse;
use std::time::Duration;

use jetty_workloads::{apps, AppProfile, TraceGen};

use crate::engine::SuiteTiming;
use crate::error::JettyError;
use crate::fault::Faults;
use crate::runner::{AppRun, AppTiming, RunOptions};

/// One `(application, simulation)` job in a batch's flattened graph.
#[derive(Clone, Copy)]
pub(crate) struct Job {
    pub(crate) sim: usize,
    pub(crate) app: usize,
}

/// What one job yields: its outcome plus its wall-clock.
pub(crate) type JobOutcome = (Result<(AppRun, AppTiming), JettyError>, Duration);

/// One simulation of a batch: a platform run once with the union bank of
/// every suite folded onto it.
pub(crate) struct Simulation {
    /// The platform plus the union bank, deduplicated in first-requested
    /// order.
    pub(crate) options: RunOptions,
    /// Each served suite: its index in the batch, and for each entry of
    /// its own bank the position of that spec in the union bank.
    pub(crate) members: Vec<(usize, Vec<usize>)>,
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

/// A batch's execution plan: the simulations, their jobs, and the order
/// workers claim the jobs in.
pub(crate) struct Plan {
    /// The applications every simulation runs, in application order.
    pub(crate) profiles: Vec<AppProfile>,
    /// [`RunOptions::id`] of each requested suite, in request order.
    ids: Vec<String>,
    pub(crate) sims: Vec<Simulation>,
    /// Every simulation's jobs, simulation-major, in application order.
    pub(crate) jobs: Vec<Job>,
    /// Indices into `jobs`, in claim order (see [`dispatch_order`]).
    pub(crate) order: Vec<usize>,
}

/// Plans a batch of distinct suites: folds them into simulations, one job
/// per application of each, claimed longest trace first.
pub(crate) fn plan(suites: &[RunOptions], faults: &Faults) -> Plan {
    let profiles = apps::all();
    let sims = fold(suites, faults);
    let jobs: Vec<Job> = (0..sims.len())
        .flat_map(|sim| (0..profiles.len()).map(move |app| Job { sim, app }))
        .collect();
    let lens: Vec<u64> = jobs
        .iter()
        .map(|job| {
            let options = &sims[job.sim].options;
            TraceGen::len_for(&profiles[job.app], options.cpus, options.scale)
        })
        .collect();
    let order = dispatch_order(&lens);
    Plan { ids: suites.iter().map(RunOptions::id).collect(), profiles, sims, jobs, order }
}

impl Plan {
    /// Turns the jobs' outcomes (indexed like [`Plan::jobs`]) into each
    /// suite's result in request order: its runs in application order,
    /// projected onto its own bank, or its simulation's root-cause error
    /// (see [`root_cause`]) attributed to the suite. Also returns one
    /// [`SuiteTiming`] per completed simulation.
    pub(crate) fn assemble(
        self,
        outcomes: Vec<JobOutcome>,
    ) -> (Vec<Result<Vec<AppRun>, JettyError>>, Vec<SuiteTiming>) {
        let mut out: Vec<Result<Vec<AppRun>, JettyError>> =
            self.sims.iter().map(|_| Ok(Vec::new())).collect();
        let mut spent = vec![(Duration::ZERO, AppTiming::default()); self.sims.len()];
        for (job, (outcome, took)) in self.jobs.iter().zip(outcomes) {
            let (elapsed, split) = &mut spent[job.sim];
            *elapsed += took;
            match (outcome, &mut out[job.sim]) {
                (Ok((run, timing)), slot) => {
                    split.gen += timing.gen;
                    split.sim += timing.sim;
                    if let Ok(runs) = slot {
                        runs.push(run);
                    }
                }
                (Err(e), slot) => root_cause(slot, e),
            }
        }

        let kernel = jetty_core::kernels::active_level().name();
        let mut results: Vec<Option<Result<Vec<AppRun>, JettyError>>> =
            self.ids.iter().map(|_| None).collect();
        let mut timings = Vec::new();
        for ((sim, outcome), (elapsed, split)) in self.sims.into_iter().zip(out).zip(spent) {
            match outcome {
                Ok(runs) => {
                    for (i, projection) in &sim.members {
                        results[*i] = Some(Ok(project(&runs, projection)));
                    }
                    timings.push(SuiteTiming {
                        suites: sim.members.iter().map(|&(i, _)| self.ids[i].clone()).collect(),
                        refs: runs.iter().map(|r| r.refs).sum(),
                        options: sim.options,
                        elapsed,
                        jobs: self.profiles.len(),
                        gen: split.gen,
                        sim: split.sim,
                        kernel,
                        shards: 1,
                    });
                }
                Err(e) => {
                    for &(i, _) in &sim.members {
                        results[i] = Some(Err(e.clone().with_suite(self.ids[i].clone())));
                    }
                }
            }
        }
        let results = results
            .into_iter()
            .map(|r| r.unwrap_or_else(|| unreachable!("every suite is served by one simulation")))
            .collect();
        (results, timings)
    }
}

/// Folds job error `e` into its simulation's `slot`: the first meaningful
/// error in job order wins. A `Cancelled` job only ever follows some other
/// job's failure, so it never displaces the root cause, and a later real
/// error displaces an earlier `Cancelled`.
fn root_cause(slot: &mut Result<Vec<AppRun>, JettyError>, e: JettyError) {
    let replace = match slot {
        Ok(_) => true,
        Err(JettyError::Cancelled { .. }) => !matches!(e, JettyError::Cancelled { .. }),
        Err(_) => false,
    };
    if replace {
        *slot = Err(e);
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

/// The order workers claim jobs in, given each job's trace length: longest
/// first, so the largest jobs never start last and leave the other workers
/// idle at the end of a batch; ties keep the canonical (simulation,
/// application) order. A job's cost is its trace length, a property of the
/// input, not of a workload name.
fn dispatch_order(lens: &[u64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..lens.len()).collect();
    order.sort_by_key(|&i| Reverse(lens[i]));
    order
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::fault::parse_fault_specs;
    use jetty_core::FilterSpec;

    /// Tiny bank + short traces so the engine's tests run in seconds.
    pub(crate) fn quick(scale: f64) -> RunOptions {
        RunOptions::paper()
            .with_scale(scale)
            .with_specs(vec![FilterSpec::exclude(8, 2), FilterSpec::include(6, 5, 6)])
    }

    /// Three banks on one platform, overlapping in one spec and sharing
    /// IJ geometries, like the base and ablation suites of `all`.
    pub(crate) fn same_platform_banks() -> Vec<RunOptions> {
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
    fn dispatch_claims_the_longest_traces_first_and_keeps_ties_canonical() {
        assert_eq!(dispatch_order(&[5, 9, 5, 12, 9, 1]), vec![3, 1, 4, 0, 2, 5]);
        assert_eq!(dispatch_order(&[7, 7, 7]), vec![0, 1, 2]);
        assert!(dispatch_order(&[]).is_empty());
    }

    /// Assembles a one-suite plan from job errors, every job not listed in
    /// `errors` reporting `Cancelled`, and returns the suite's error.
    fn assembled_error(errors: &[(usize, JettyError)]) -> JettyError {
        let plan = plan(&[quick(0.002)], &Faults::default());
        let outcomes = (0..plan.jobs.len())
            .map(|i| {
                let e = errors.iter().find(|(at, _)| *at == i).map(|(_, e)| e.clone());
                (Err(e.unwrap_or(JettyError::Cancelled { suite: "sim".into() })), Duration::ZERO)
            })
            .collect();
        let (mut results, timings) = plan.assemble(outcomes);
        assert!(timings.is_empty(), "a failed simulation records no timing");
        results.pop().unwrap().unwrap_err()
    }

    #[test]
    fn assembly_reports_the_root_cause_under_the_suite_id() {
        let id = quick(0.002).id();
        let deadline = |suite: &str| JettyError::Deadline { suite: suite.into(), budget_ms: 7 };
        // Cancelled then Deadline: the later real error displaces the cancel.
        assert_eq!(assembled_error(&[(3, deadline("sim"))]), deadline(&id));
        // Deadline then Cancelled: the cancels never displace it.
        assert_eq!(assembled_error(&[(0, deadline("sim"))]), deadline(&id));
        // Two real errors: the first in job order wins, whatever its kind.
        let first = JettyError::simulation("sim", "first");
        let got = assembled_error(&[(6, deadline("sim")), (2, first), (4, deadline("sim"))]);
        assert_eq!(got, JettyError::simulation(&id, "first"));
        // All cancelled: the suite still fails, as cancelled.
        assert_eq!(assembled_error(&[]), JettyError::Cancelled { suite: id });
    }
}
