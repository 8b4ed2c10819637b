//! # jetty-workloads — synthetic SPLASH-2-style trace generators
//!
//! The paper drives its 4-way SMP with memory traces of ten shared-memory
//! applications (SPLASH-2 plus Em3d and Unstructured) collected with the
//! Wisconsin Wind Tunnel II. Those traces are not reproducible here, so
//! this crate synthesises per-application reference streams from weighted
//! mixtures of the sharing patterns the SPLASH-2 characterisation
//! literature describes:
//!
//! * per-CPU **private** hierarchies with hot/warm/cold working sets
//!   (controls the L1/L2 local hit rates of Table 2);
//! * **streaming** scans (radix-style cold misses);
//! * widely-read **shared** regions with rare writes (2–3 remote-hit
//!   transactions);
//! * **producer/consumer** channels (pairwise, one-remote-hit sharing —
//!   the dominant pattern per Weber & Gupta);
//! * **migratory** records (critical-section data bouncing owner to
//!   owner).
//!
//! Each of the ten [`AppProfile`]s carries the paper's published target
//! statistics ([`PaperStats`]) so harnesses can report target-vs-measured;
//! the calibration deltas live in EXPERIMENTS.md.
//!
//! ## Example
//!
//! ```
//! use jetty_sim::{System, SystemConfig};
//! use jetty_workloads::{apps, TraceGen};
//!
//! let profile = apps::lu();
//! let mut smp = System::new(SystemConfig::paper_4way().without_checks(), &[]);
//! smp.run(TraceGen::new(&profile, 4, 0.05));
//! let run = smp.run_stats();
//! // Short traces are cold-start dominated; full-length runs reach ~0.96.
//! assert!(run.nodes.l1_hit_rate() > 0.7);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apps;
mod gen;
mod layout;
mod patterns;
mod profile;
mod sample;

pub use gen::TraceGen;
pub use layout::Layout;
pub use patterns::{PatternState, RefOut};
pub use profile::{AppProfile, PaperStats, RegionLayout, SegmentSpec};
