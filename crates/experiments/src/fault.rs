//! Deterministic fault injection: `JETTY_FAULT=<spec>[,<spec>...]`.
//!
//! The failure paths added by the run pipeline's failure model (typed
//! per-suite errors, store retries, deadline cancellation) are only
//! trustworthy if CI can walk them on demand. This module is the switch:
//! a comma-separated spec list resolved **once** per process from the
//! `JETTY_FAULT` environment variable and logged — compiled in always but
//! inert when unset. The no-fault cost is one lazily-initialised atomic
//! load plus an `is_empty()` check per *job* (not per event), which is
//! unmeasurable next to a simulation job's millions of references.
//!
//! # Grammar
//!
//! | Spec | Effect |
//! |------|--------|
//! | `suite-fail@<suite-id>` | Every job of the suite fails immediately. |
//! | `suite-panic@<suite-id>` | Every job of the suite panics (exercises worker containment). |
//! | `slow-suite@<suite-id>:<ms>` | Each job of the suite sleeps `<ms>` before every chunk (deterministic deadline trigger). |
//! | `store-write-err@frame<N>` | Appending the `N`-th store frame (1-based) always fails. |
//! | `store-write-err@frame<N>:<count>` | ... fails only the first `<count>` attempts, then succeeds (transient fault; exercises retry). |
//!
//! `<suite-id>` is a [`RunOptions::id`](crate::RunOptions::id) string such
//! as `cpus8-scale0.02-sb-moesi-paperbank22`. An invalid spec list is
//! ignored wholesale with a one-line stderr warning naming the bad value —
//! a typo must not silently inject *some* of the faults.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

/// One parsed fault specification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultSpec {
    /// Fail every job of the named suite immediately.
    SuiteFail {
        /// Target [`RunOptions::id`](crate::RunOptions::id).
        suite: String,
    },
    /// Panic inside every job of the named suite (worker containment).
    SuitePanic {
        /// Target [`RunOptions::id`](crate::RunOptions::id).
        suite: String,
    },
    /// Sleep before every chunk of the named suite's jobs.
    SlowSuite {
        /// Target [`RunOptions::id`](crate::RunOptions::id).
        suite: String,
        /// Per-chunk sleep in milliseconds.
        ms: u64,
    },
    /// Fail the append of the `frame`-th store record (1-based).
    StoreWriteErr {
        /// 1-based frame ordinal whose append fails.
        frame: u64,
        /// How many attempts fail before succeeding; `None` = always.
        times: Option<u64>,
    },
}

/// Parses one spec (pure; no environment access).
fn parse_spec(spec: &str) -> Result<FaultSpec, String> {
    let (kind, arg) = spec
        .split_once('@')
        .ok_or_else(|| format!("spec {spec:?} has no '@' (want <kind>@<target>)"))?;
    match kind {
        "suite-fail" => Ok(FaultSpec::SuiteFail { suite: arg.to_owned() }),
        "suite-panic" => Ok(FaultSpec::SuitePanic { suite: arg.to_owned() }),
        "slow-suite" => {
            let (suite, ms) = arg
                .rsplit_once(':')
                .ok_or_else(|| format!("slow-suite spec {spec:?} wants <suite-id>:<ms>"))?;
            let ms = ms
                .parse::<u64>()
                .map_err(|_| format!("slow-suite delay {ms:?} is not a millisecond count"))?;
            Ok(FaultSpec::SlowSuite { suite: suite.to_owned(), ms })
        }
        "store-write-err" => {
            let (frame, times) = match arg.split_once(':') {
                Some((frame, times)) => {
                    let times = times
                        .parse::<u64>()
                        .map_err(|_| format!("store-write-err count {times:?} is not a number"))?;
                    (frame, Some(times))
                }
                None => (arg, None),
            };
            let frame = frame
                .strip_prefix("frame")
                .and_then(|n| n.parse::<u64>().ok())
                .filter(|&n| n >= 1)
                .ok_or_else(|| {
                    format!("store-write-err target {frame:?} wants frame<N> with N >= 1")
                })?;
            Ok(FaultSpec::StoreWriteErr { frame, times })
        }
        other => Err(format!(
            "unknown fault kind {other:?} (want suite-fail, suite-panic, slow-suite, \
             or store-write-err)"
        )),
    }
}

/// Parses a full comma-separated `JETTY_FAULT` value (pure — this is the
/// unit-testable half of the resolver, like the engine's `positive_env`
/// for its numeric overrides). Any invalid spec rejects the whole list.
pub fn parse_fault_specs(value: &str) -> Result<Vec<FaultSpec>, String> {
    value.split(',').map(str::trim).filter(|s| !s.is_empty()).map(parse_spec).collect()
}

/// The resolved process-wide fault plan. Inert (`is_active() == false`)
/// when `JETTY_FAULT` is unset, empty, or invalid.
#[derive(Debug, Default)]
pub struct Faults {
    specs: Vec<FaultSpec>,
    /// Remaining failing attempts for each counted `StoreWriteErr` spec
    /// (parallel to `specs`; unused entries stay 0).
    store_budgets: Vec<AtomicU64>,
}

impl Faults {
    /// Builds a plan from parsed specs (tests construct these directly;
    /// production goes through [`active`]).
    pub fn from_specs(specs: Vec<FaultSpec>) -> Self {
        let store_budgets = specs
            .iter()
            .map(|s| match s {
                FaultSpec::StoreWriteErr { times: Some(n), .. } => AtomicU64::new(*n),
                _ => AtomicU64::new(0),
            })
            .collect();
        Self { specs, store_budgets }
    }

    /// `true` when at least one fault is armed. The hot-path guard: when
    /// this is `false` no per-suite string ids are ever built.
    pub fn is_active(&self) -> bool {
        !self.specs.is_empty()
    }

    /// Should every job of this suite fail immediately?
    pub fn suite_fail(&self, suite_id: &str) -> bool {
        self.specs.iter().any(|s| matches!(s, FaultSpec::SuiteFail { suite } if suite == suite_id))
    }

    /// Should every job of this suite panic?
    pub fn suite_panic(&self, suite_id: &str) -> bool {
        self.specs.iter().any(|s| matches!(s, FaultSpec::SuitePanic { suite } if suite == suite_id))
    }

    /// Per-chunk sleep injected into this suite's jobs, when armed.
    pub fn slow_suite(&self, suite_id: &str) -> Option<Duration> {
        self.specs.iter().find_map(|s| match s {
            FaultSpec::SlowSuite { suite, ms } if suite == suite_id => {
                Some(Duration::from_millis(*ms))
            }
            _ => None,
        })
    }

    /// Does any suite-level fault (`suite-fail`, `suite-panic` or
    /// `slow-suite`) name this suite? The engine runs such a suite alone,
    /// never folded with others, so the fault keeps hitting exactly it.
    pub fn targets_suite(&self, suite_id: &str) -> bool {
        self.suite_fail(suite_id)
            || self.suite_panic(suite_id)
            || self.slow_suite(suite_id).is_some()
    }

    /// Should this append attempt of the `frame`-th store record (1-based)
    /// fail? Counted specs burn one failure per call, so a retrying writer
    /// eventually succeeds; uncounted specs fail every attempt.
    pub fn store_write_error(&self, frame: u64) -> bool {
        for (spec, budget) in self.specs.iter().zip(&self.store_budgets) {
            match spec {
                FaultSpec::StoreWriteErr { frame: target, times } if *target == frame => {
                    match times {
                        None => return true,
                        Some(_) => {
                            // Burn one failing attempt, saturating at 0.
                            let remaining = budget
                                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                                    n.checked_sub(1)
                                })
                                .is_ok();
                            if remaining {
                                return true;
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        false
    }
}

/// The process-wide fault plan: `JETTY_FAULT` resolved on first use, then
/// cached. Logs the armed specs (or a warning for an invalid value) to
/// stderr exactly once.
pub fn active() -> &'static Faults {
    static FAULTS: OnceLock<Faults> = OnceLock::new();
    FAULTS.get_or_init(|| {
        let Ok(value) = std::env::var("JETTY_FAULT") else { return Faults::default() };
        match parse_fault_specs(&value) {
            Ok(specs) if specs.is_empty() => Faults::default(),
            Ok(specs) => {
                eprintln!("[fault] injection active: {}", value.trim());
                Faults::from_specs(specs)
            }
            Err(reason) => {
                eprintln!(
                    "warning: ignoring invalid JETTY_FAULT={value:?} ({reason}); \
                     no faults injected"
                );
                Faults::default()
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_spec_kind() {
        let specs = parse_fault_specs(
            "suite-fail@cpus8-scale0.02-sb-moesi-paperbank22, \
             suite-panic@a, slow-suite@b:40, store-write-err@frame2, store-write-err@frame3:2",
        )
        .unwrap();
        assert_eq!(
            specs,
            vec![
                FaultSpec::SuiteFail { suite: "cpus8-scale0.02-sb-moesi-paperbank22".into() },
                FaultSpec::SuitePanic { suite: "a".into() },
                FaultSpec::SlowSuite { suite: "b".into(), ms: 40 },
                FaultSpec::StoreWriteErr { frame: 2, times: None },
                FaultSpec::StoreWriteErr { frame: 3, times: Some(2) },
            ]
        );
    }

    #[test]
    fn one_bad_spec_rejects_the_whole_list() {
        for bad in [
            "nonsense",
            "suite-fail",
            "explode@x",
            "slow-suite@x",
            "slow-suite@x:soon",
            "store-write-err@2",
            "store-write-err@frame0",
            "store-write-err@frameX",
            "store-write-err@frame2:many",
            "suite-fail@ok,bogus@y",
        ] {
            assert!(parse_fault_specs(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn empty_value_is_inert() {
        assert_eq!(parse_fault_specs("").unwrap(), Vec::new());
        assert!(!Faults::default().is_active());
    }

    #[test]
    fn suite_matchers_hit_only_their_target() {
        let f = Faults::from_specs(
            parse_fault_specs("suite-fail@a,suite-panic@b,slow-suite@c:7").unwrap(),
        );
        assert!(f.is_active());
        assert!(f.suite_fail("a") && !f.suite_fail("b") && !f.suite_fail("c"));
        assert!(f.suite_panic("b") && !f.suite_panic("a"));
        assert_eq!(f.slow_suite("c"), Some(Duration::from_millis(7)));
        assert_eq!(f.slow_suite("a"), None);
        assert!(["a", "b", "c"].iter().all(|id| f.targets_suite(id)));
        assert!(!f.targets_suite("d"));
    }

    #[test]
    fn counted_store_faults_burn_down_then_succeed() {
        let f = Faults::from_specs(parse_fault_specs("store-write-err@frame2:2").unwrap());
        assert!(!f.store_write_error(1), "frame 1 is not the target");
        assert!(f.store_write_error(2), "first attempt fails");
        assert!(f.store_write_error(2), "second attempt fails");
        assert!(!f.store_write_error(2), "budget exhausted: third attempt succeeds");
    }

    #[test]
    fn uncounted_store_faults_fail_forever() {
        let f = Faults::from_specs(parse_fault_specs("store-write-err@frame1").unwrap());
        for _ in 0..5 {
            assert!(f.store_write_error(1));
        }
        assert!(!f.store_write_error(2));
    }
}
