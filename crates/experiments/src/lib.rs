//! # jetty-experiments — the reproduction harness
//!
//! One function per table and figure of the paper, all driven from a single
//! simulation pass per application (the filter bank makes every
//! configuration a bystander of the same trace). The `jetty-repro` binary
//! exposes each as a subcommand:
//!
//! ```text
//! jetty-repro all            # everything below, in paper order
//! jetty-repro table1         # Xeon power breakdown
//! jetty-repro fig2           # analytic snoop-miss energy model
//! jetty-repro table2 table3  # workload characteristics + snoop distribution
//! jetty-repro fig4a fig4b    # EJ / VEJ coverage
//! jetty-repro fig5a fig5b    # IJ / HJ coverage
//! jetty-repro table4         # IJ storage
//! jetty-repro fig6           # energy reductions (4 panels)
//! jetty-repro smp8           # 8-way summary (§4.3.4)
//! jetty-repro nsb            # non-subblocked summary
//! jetty-repro calibrate      # measured-vs-paper deltas
//! jetty-repro ablation       # IJ index-overlap + HJ allocation-policy studies
//! jetty-repro protocols      # MOESI/MESI/MSI coverage + energy sweep
//! jetty-repro sweep          # declarative multi-axis scenario grid
//! jetty-repro runs           # list a run store's recorded invocations
//! jetty-repro diff A B       # cell-level comparison of two recorded runs
//! ```
//!
//! (`protocols` and `sweep` are extensions beyond the paper's exhibits and
//! are *not* part of `all`, keeping that output byte-comparable across
//! versions.)
//!
//! Pass `--scale 0.1` for a 10x shorter run, `--cpus 8` for the 8-way
//! configuration, `--threads N` to size the parallel experiment engine
//! (default: available parallelism, or the `JETTY_THREADS` environment
//! variable), and `--format {text,json,csv}` to pick an output renderer
//! (`--csv DIR` still dumps per-table CSV files).
//!
//! The crate is layered as *collect typed, render late*:
//!
//! * builders ([`tables`], [`figures`], [`protocols`], [`ablation`],
//!   [`sweep`]) populate [`results::TableData`] with typed
//!   [`results::Cell`]s — no formatting happens here;
//! * the [`results`] module renders a finished [`results::ResultSet`]
//!   through a pluggable [`results::render::Renderer`] (aligned text —
//!   byte-identical to the historical output — JSON, or CSV);
//! * suites are executed by the [`engine`]: a scoped-thread worker pool
//!   over `(profile, options)` simulation jobs with a cache keyed by
//!   [`RunOptions`], so independent suites run concurrently and no
//!   identical suite is simulated twice. The [`sweep`] module expands a
//!   declarative [`sweep::SweepGrid`] into those cache keys;
//! * the [`store`] module persists finished result sets — an append-only,
//!   checksummed, single-file run store keyed by git revision and
//!   [`RunOptions::id`] — and [`store::diff`] compares any two recorded
//!   runs cell-by-cell (`--store PATH` to record, `jetty-repro diff` /
//!   `runs` to compare and list), which is what the CI regression gate
//!   runs on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Failure-model discipline: user-reachable code paths must carry typed
// [`error::JettyError`]s instead of panicking. The handful of survivors
// are allow-listed at the use site with a justification — each one is a
// genuine internal invariant, not a reachable failure.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod ablation;
pub mod engine;
pub mod error;
pub mod fault;
pub mod figures;
pub mod protocols;
pub mod results;
pub mod runner;
pub mod store;
pub mod sweep;
pub mod tables;

pub use engine::{Engine, EngineStats, SuiteCache, SuiteResult};
pub use error::JettyError;
pub use results::render::{Format, Renderer};
pub use results::{Cell, ResultSet, TableData};
pub use runner::{average, run_app, run_app_gated, run_suite, AppRun, AppTiming, RunOptions};
pub use store::diff::{diff_runs, DiffOptions, DiffReport};
pub use store::{RunInfo, RunRecord, RunRef, RunStore};
pub use sweep::{Axis, SweepGrid};
