//! Simulation runner: executes one application (or the whole suite) with a
//! bank of filter configurations attached and collects everything the
//! tables and figures need.
//!
//! Filters never change protocol behaviour, so a single run per application
//! yields coverage and energy-activity for *every* configuration in the
//! bank over an identical reference stream — the same methodology the paper
//! uses (all organisations evaluated on the same traces).

use std::hash::{Hash, Hasher};

use jetty_core::FilterSpec;
use jetty_sim::{FilterReport, GateStop, ProtocolKind, RunGate, RunStats, System, SystemConfig};
use jetty_workloads::{AppProfile, TraceGen};

use crate::engine::Engine;
use crate::error::JettyError;
use crate::fault;

/// Options for a reproduction run.
///
/// `RunOptions` doubles as the key of the [`Engine`]'s result memo:
/// equality and hashing cover every field that changes simulation
/// output — `cpus`, the exact bit pattern of `scale`, `check`, the full
/// filter bank (order included, since report order follows bank order),
/// `non_subblocked`, and the coherence `protocol`.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Processors on the bus (4 for the base tables, 8 for §4.3.4).
    pub cpus: usize,
    /// Trace-length multiplier over each profile's default.
    pub scale: f64,
    /// Enable full runtime checking (slower; tests use it, experiment runs
    /// rely on the always-on filter-safety assertion).
    pub check: bool,
    /// Filter configurations to attach to every node.
    pub specs: Vec<FilterSpec>,
    /// Use the non-subblocked L2 variant.
    pub non_subblocked: bool,
    /// Coherence protocol to simulate (the paper's platform is MOESI).
    pub protocol: ProtocolKind,
}

impl RunOptions {
    /// The paper's default evaluation: 4-way SMP, full filter bank.
    pub fn paper() -> Self {
        Self {
            cpus: 4,
            scale: 1.0,
            check: false,
            specs: FilterSpec::paper_bank(),
            non_subblocked: false,
            protocol: ProtocolKind::Moesi,
        }
    }

    /// Scales the trace length (for quick runs and benches).
    pub fn with_scale(mut self, scale: f64) -> Self {
        self.scale = scale;
        self
    }

    /// Sets the CPU count.
    pub fn with_cpus(mut self, cpus: usize) -> Self {
        self.cpus = cpus;
        self
    }

    /// Replaces the filter bank.
    pub fn with_specs(mut self, specs: Vec<FilterSpec>) -> Self {
        self.specs = specs;
        self
    }

    /// Switches the coherence protocol.
    pub fn with_protocol(mut self, protocol: ProtocolKind) -> Self {
        self.protocol = protocol;
        self
    }

    /// Switches full runtime checking on or off.
    pub fn with_check(mut self, check: bool) -> Self {
        self.check = check;
        self
    }

    /// Selects the non-subblocked L2 variant (the paper's platform is
    /// subblocked; the `nsb` sweep axis flips this).
    pub fn with_non_subblocked(mut self, non_subblocked: bool) -> Self {
        self.non_subblocked = non_subblocked;
        self
    }

    /// Stable machine-readable identity string, e.g.
    /// `cpus4-scale0.02-sb-moesi-paperbank22`. Every field that changes
    /// simulation output is encoded (the same fields the cache key
    /// hashes), with filter banks named by their [`FilterSpec::id`]s —
    /// the paper's 22-entry bank collapses to `paperbank22`. The run
    /// store records this so `jetty-repro diff` can tell configuration
    /// changes from output drift.
    pub fn id(&self) -> String {
        let bank = if self.specs == FilterSpec::paper_bank() {
            "paperbank22".to_owned()
        } else if self.specs.is_empty() {
            "nobank".to_owned()
        } else {
            self.specs.iter().map(|s| s.id()).collect::<Vec<_>>().join("+")
        };
        format!(
            "cpus{}-scale{}-{}-{}{}-{bank}",
            self.cpus,
            self.scale,
            if self.non_subblocked { "nsb" } else { "sb" },
            self.protocol.to_string().to_ascii_lowercase(),
            if self.check { "-check" } else { "" },
        )
    }

    /// Compact one-line description for logs and `--timings` lines, e.g.
    /// `cpus=4 scale=1 nsb=false check=false proto=MOESI bank=22`.
    pub fn describe(&self) -> String {
        format!(
            "cpus={} scale={} nsb={} check={} proto={} bank={}",
            self.cpus,
            self.scale,
            self.non_subblocked,
            self.check,
            self.protocol,
            self.specs.len()
        )
    }

    fn system_config(&self) -> SystemConfig {
        let mut config = if self.non_subblocked {
            SystemConfig::paper_4way_nsb()
        } else {
            SystemConfig::paper_4way()
        };
        config.cpus = self.cpus;
        config.protocol = self.protocol;
        if !self.check {
            config = config.without_checks();
        }
        config
    }
}

impl Default for RunOptions {
    fn default() -> Self {
        Self::paper()
    }
}

// Manual key impls: `scale` is an `f64`, compared and hashed by bit
// pattern. Identical bits mean an identical trace length; NaN scales are
// rejected by `TraceGen` long before they could reach a cache.
impl PartialEq for RunOptions {
    fn eq(&self, other: &Self) -> bool {
        self.cpus == other.cpus
            && self.scale.to_bits() == other.scale.to_bits()
            && self.check == other.check
            && self.specs == other.specs
            && self.non_subblocked == other.non_subblocked
            && self.protocol == other.protocol
    }
}

impl Eq for RunOptions {}

impl Hash for RunOptions {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.cpus.hash(state);
        self.scale.to_bits().hash(state);
        self.check.hash(state);
        self.specs.hash(state);
        self.non_subblocked.hash(state);
        self.protocol.hash(state);
    }
}

/// Everything collected from one application run.
#[derive(Clone, Debug)]
pub struct AppRun {
    /// The workload profile (including the paper's targets).
    pub profile: AppProfile,
    /// Allocated footprint in bytes.
    pub footprint: u64,
    /// References executed.
    pub refs: u64,
    /// Aggregated statistics.
    pub run: RunStats,
    /// One report per filter spec, in bank order.
    pub reports: Vec<FilterReport>,
}

impl AppRun {
    /// Finds the report for a given configuration label.
    pub fn report(&self, label: &str) -> Option<&FilterReport> {
        self.reports.iter().find(|r| r.label == label)
    }

    /// Coverage of a configuration by label.
    ///
    /// # Panics
    ///
    /// Panics if the label is not in the bank (harness bug).
    pub fn coverage(&self, label: &str) -> f64 {
        self.report(label)
            .unwrap_or_else(|| panic!("configuration {label} not in the bank"))
            .coverage()
    }
}

/// Wall-clock attribution of one application run, split between the two
/// streamed stages: trace generation (refilling the chunk buffer) and
/// simulation (running each chunk through the system). Summed per suite
/// into [`SuiteTiming`](crate::engine::SuiteTiming) for `--timings`.
#[derive(Clone, Copy, Debug, Default)]
pub struct AppTiming {
    /// Time spent generating trace chunks.
    pub gen: std::time::Duration,
    /// Time spent simulating trace chunks.
    pub sim: std::time::Duration,
}

/// Runs one application.
///
/// One `TraceGen` serves both metadata and simulation: `footprint()` and
/// `len()` are whole-trace totals (fixed at construction, *not* remaining
/// counts), so reading them here costs nothing and the generator is then
/// consumed exactly once — there is no second generation pass. The debug
/// assertion pins the metadata-before-iteration invariant so a future
/// reordering cannot silently double-generate or misreport.
pub fn run_app(profile: &AppProfile, options: &RunOptions) -> AppRun {
    run_app_gated(profile, options, 1, &RunGate::unbounded())
        .unwrap_or_else(|e| panic!("unbounded fault-free run cannot fail: {e}"))
        .0
}

/// [`run_app`] under a [`RunGate`] and the process fault plan, also
/// returning the generation/simulation wall-clock split. The third
/// parameter is inert: ROADMAP item 1 deletes it once perfbench stops
/// passing it.
///
/// The trace is streamed: the generator refills one reusable
/// [`System::CHUNK_LEN`]-reference buffer per iteration and the system
/// consumes it via [`System::run_chunk`] (the batched snoop fan-out), so
/// the whole trace is never materialised and the two stages can be timed
/// separately at chunk granularity (two clock reads per
/// [`System::CHUNK_LEN`] references — noise-level overhead). The gate
/// (and any armed `slow-suite` fault) is applied once before every
/// chunk, so a deadline expiry or cooperative cancellation stops the job
/// within one chunk's worth of work. With an unbounded gate and no
/// faults armed the cost is one inert fault lookup per job and one cheap
/// gate check per chunk.
pub fn run_app_gated(
    profile: &AppProfile,
    options: &RunOptions,
    _shards: usize,
    gate: &RunGate,
) -> Result<(AppRun, AppTiming), JettyError> {
    let faults = fault::active();
    let slow = if faults.is_active() {
        let suite_id = options.id();
        if faults.suite_fail(&suite_id) {
            return Err(JettyError::simulation(suite_id, "injected fault: suite-fail"));
        }
        if faults.suite_panic(&suite_id) {
            panic!("injected fault: suite-panic@{suite_id}");
        }
        faults.slow_suite(&suite_id)
    } else {
        None
    };
    let stop = |reason: GateStop| match reason {
        GateStop::DeadlineExpired { budget_ms } => {
            JettyError::Deadline { suite: options.id(), budget_ms }
        }
        GateStop::Cancelled => JettyError::Cancelled { suite: options.id() },
    };
    let mut system = System::new(options.system_config(), &options.specs);
    let mut generator = TraceGen::new(profile, options.cpus, options.scale);
    let footprint = generator.footprint();
    let refs = generator.len();
    debug_assert_eq!(
        generator.size_hint().0 as u64,
        refs,
        "TraceGen metadata must be taken before iteration consumes the generator"
    );
    let mut timing = AppTiming::default();
    let mut buf = Vec::with_capacity(System::CHUNK_LEN);
    loop {
        let start = std::time::Instant::now();
        let more = generator.fill_chunk(&mut buf, System::CHUNK_LEN);
        timing.gen += start.elapsed();
        if !more {
            break;
        }
        if let Some(delay) = slow {
            std::thread::sleep(delay);
        }
        gate.check().map_err(stop)?;
        let start = std::time::Instant::now();
        system.run_chunk(&buf);
        timing.sim += start.elapsed();
    }
    let run = AppRun {
        profile: profile.clone(),
        footprint,
        refs,
        run: system.run_stats(),
        reports: system.filter_reports(),
    };
    Ok((run, timing))
}

/// Runs the full ten-application suite sequentially on the calling
/// thread.
///
/// This is the single-threaded, uncached entry into the [`Engine`];
/// callers that want concurrency or suite reuse should hold an engine
/// themselves (as `jetty-repro` does).
pub fn run_suite(options: &RunOptions) -> Vec<AppRun> {
    Engine::new(1)
        .run_suite_uncached(options)
        .unwrap_or_else(|e| panic!("unbounded fault-free suite cannot fail: {e}"))
}

/// Parses a trace scale, the factor on every application's reference
/// count: a positive, finite number. `--scale` and the sweep's `scale`
/// axis both go through here, so they accept exactly the same values.
pub fn parse_scale(raw: &str) -> Result<f64, String> {
    let x: f64 = raw.parse().map_err(|_| format!("bad scale: {raw}"))?;
    if x > 0.0 && x.is_finite() {
        Ok(x)
    } else {
        Err(format!("scale must be positive and finite, got {raw}"))
    }
}

/// Weighted-equal average of a metric over a suite (the paper's "AVG"
/// columns average per-application values, not pooled events).
pub fn average<F: Fn(&AppRun) -> f64>(runs: &[AppRun], f: F) -> f64 {
    if runs.is_empty() {
        return 0.0;
    }
    runs.iter().map(&f).sum::<f64>() / runs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use jetty_workloads::apps;

    fn quick_options() -> RunOptions {
        RunOptions::paper()
            .with_scale(0.01)
            .with_specs(vec![FilterSpec::exclude(8, 2), FilterSpec::include(6, 5, 6)])
    }

    #[test]
    fn run_app_collects_reports_in_bank_order() {
        let app = apps::fft();
        let result = run_app(&app, &quick_options());
        assert_eq!(result.reports.len(), 2);
        assert_eq!(result.reports[0].label, "EJ-8x2");
        assert_eq!(result.reports[1].label, "IJ-6x5x6");
        assert!(result.refs > 0);
        assert!(result.footprint > 0);
        assert!(result.run.nodes.l1_accesses == result.refs);
    }

    #[test]
    fn report_lookup_by_label() {
        let app = apps::lu();
        let result = run_app(&app, &quick_options());
        assert!(result.report("EJ-8x2").is_some());
        assert!(result.report("nope").is_none());
        let c = result.coverage("IJ-6x5x6");
        assert!((0.0..=1.0).contains(&c));
    }

    #[test]
    #[should_panic(expected = "not in the bank")]
    fn coverage_panics_on_unknown_label() {
        let app = apps::lu();
        let result = run_app(&app, &quick_options());
        let _ = result.coverage("EJ-1024x16");
    }

    #[test]
    fn average_helper() {
        let app = apps::fft();
        let runs = vec![run_app(&app, &quick_options())];
        let avg = average(&runs, |r| r.run.nodes.l1_hit_rate());
        assert!((0.0..=1.0).contains(&avg));
        assert_eq!(average(&[], |_| 1.0), 0.0);
    }

    #[test]
    fn run_options_key_semantics() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};

        fn h(o: &RunOptions) -> u64 {
            let mut s = DefaultHasher::new();
            o.hash(&mut s);
            s.finish()
        }

        let base = quick_options();
        assert_eq!(base, base.clone());
        assert_eq!(h(&base), h(&base.clone()));
        assert_ne!(base, base.clone().with_cpus(8));
        assert_ne!(base, base.clone().with_scale(0.02));
        assert_ne!(base, base.clone().with_specs(vec![FilterSpec::exclude(8, 2)]));
        let mut checked = base.clone();
        checked.check = true;
        assert_ne!(base, checked);
        assert_ne!(base, base.clone().with_non_subblocked(true));
        assert_ne!(base, base.clone().with_protocol(ProtocolKind::Mesi));
        assert_ne!(
            h(&base),
            h(&base.clone().with_protocol(ProtocolKind::Msi)),
            "protocol must reach the cache key hash"
        );
    }

    #[test]
    fn run_options_id_is_stable_and_field_complete() {
        assert_eq!(RunOptions::paper().id(), "cpus4-scale1-sb-moesi-paperbank22");
        assert_eq!(
            RunOptions::paper().with_scale(0.02).id(),
            "cpus4-scale0.02-sb-moesi-paperbank22"
        );
        let base = quick_options();
        assert_eq!(base.id(), "cpus4-scale0.01-sb-moesi-ej-8x2+ij-6x5x6");
        let mut checked = base.clone();
        checked.check = true;
        let variants = [
            base.clone().with_cpus(8),
            base.clone().with_scale(0.5),
            base.clone().with_non_subblocked(true),
            base.clone().with_protocol(ProtocolKind::Msi),
            base.clone().with_specs(vec![FilterSpec::exclude(8, 2)]),
            checked,
        ];
        for variant in &variants {
            assert_ne!(base.id(), variant.id(), "{}", variant.describe());
        }
        assert_eq!(RunOptions::paper().with_specs(Vec::new()).id(), "cpus4-scale1-sb-moesi-nobank");
    }

    #[test]
    fn protocol_reaches_the_simulated_system() {
        let options = quick_options().with_protocol(ProtocolKind::Msi);
        let result = run_app(&apps::fft(), &options);
        // MSI has no Exclusive state: every first store after a read miss
        // pays an upgrade, so upgrades must strictly exceed the MOESI run.
        let moesi = run_app(&apps::fft(), &quick_options());
        assert!(
            result.run.nodes.bus_upgrades > moesi.run.nodes.bus_upgrades,
            "MSI {} vs MOESI {} upgrades",
            result.run.nodes.bus_upgrades,
            moesi.run.nodes.bus_upgrades
        );
    }

    #[test]
    fn eight_way_run_works() {
        let options = quick_options().with_cpus(8);
        let result = run_app(&apps::barnes(), &options);
        assert_eq!(result.run.system.remote_hit_hist.len(), 8);
    }

    #[test]
    fn checked_run_passes_invariants() {
        let mut options = quick_options();
        options.check = true;
        // A sharing-heavy app under full checking: protocol + filters OK.
        let _ = run_app(&apps::unstructured(), &options);
    }
}
