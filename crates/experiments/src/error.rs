//! The typed error hierarchy for the run pipeline, plus the documented
//! process exit codes.
//!
//! Everything that can go wrong between "parse the command line" and
//! "render the last table" is a [`JettyError`]; the variants mirror the
//! pipeline's failure domains (simulation, store I/O, configuration,
//! deadline, cooperative cancellation) so callers can branch on *kind*
//! without parsing message strings. Errors are values: a failed suite is
//! carried through [`Engine::run_suites`](crate::engine::Engine::run_suites)
//! as a per-suite `Err`, rendered as a row of the `failures` table, and
//! folded into the exit code — it never aborts the process.

use std::fmt;

/// Process exit codes of `jetty-repro`, as documented in
/// `docs/ARCHITECTURE.md` §7.
///
/// The distinction the CI fault smoke relies on: partial output is still
/// trustworthy output ([`PARTIAL`](exit::PARTIAL)), while
/// [`TOTAL`](exit::TOTAL) means stdout carries no simulation results at
/// all.
pub mod exit {
    /// Everything requested succeeded.
    pub const CLEAN: u8 = 0;
    /// Nothing usable was produced: usage errors, store-command failures,
    /// diff drift, or every requested exhibit failed.
    pub const TOTAL: u8 = 1;
    /// Real results were rendered, but some suites failed (see the
    /// `failures` table) or the store append did not persist them.
    pub const PARTIAL: u8 = 2;
}

/// Everything that can go wrong in the run pipeline.
///
/// # Examples
///
/// ```
/// use jetty_experiments::error::JettyError;
///
/// let e = JettyError::simulation("cpus4-scale1-sb-moesi-paperbank22", "injected fault");
/// assert_eq!(e.kind(), "simulation");
/// assert!(e.to_string().contains("injected fault"));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JettyError {
    /// A simulation job failed: an injected fault, or a worker that died
    /// (panicked, or abandoned its result slot).
    Simulation {
        /// [`RunOptions::id`](crate::RunOptions::id) of the failed suite.
        suite: String,
        /// What happened, suitable for the `failures` table.
        message: String,
    },
    /// Run-store I/O failed — open, scan, or append (the latter only after
    /// bounded retries; see [`crate::store::RunStore::append`]).
    Store {
        /// Path of the store file involved.
        path: String,
        /// The underlying I/O or format problem.
        message: String,
    },
    /// A user-facing configuration problem: malformed run references, bad
    /// flag values that survive parsing, and similar.
    Config(String),
    /// A job blew through its `--deadline-ms`/`JETTY_DEADLINE_MS` budget
    /// and was cancelled at a chunk boundary.
    Deadline {
        /// [`RunOptions::id`](crate::RunOptions::id) of the timed-out suite.
        suite: String,
        /// The budget that was exceeded, in milliseconds.
        budget_ms: u64,
    },
    /// A job was cancelled cooperatively because a sibling job of the same
    /// suite already failed — its partial result could never be used.
    Cancelled {
        /// [`RunOptions::id`](crate::RunOptions::id) of the cancelled suite.
        suite: String,
    },
}

impl JettyError {
    /// A [`JettyError::Simulation`] from anything displayable.
    pub fn simulation(suite: impl Into<String>, message: impl Into<String>) -> Self {
        Self::Simulation { suite: suite.into(), message: message.into() }
    }

    /// A [`JettyError::Store`] from anything displayable.
    pub fn store(path: impl Into<String>, message: impl Into<String>) -> Self {
        Self::Store { path: path.into(), message: message.into() }
    }

    /// A [`JettyError::Config`] from anything displayable.
    pub fn config(message: impl Into<String>) -> Self {
        Self::Config(message.into())
    }

    /// The failure domain as a stable lower-case word — the `kind` column
    /// of the `failures` table (`simulation`, `store`, `config`,
    /// `deadline`, `cancelled`).
    pub fn kind(&self) -> &'static str {
        match self {
            Self::Simulation { .. } => "simulation",
            Self::Store { .. } => "store",
            Self::Config(_) => "config",
            Self::Deadline { .. } => "deadline",
            Self::Cancelled { .. } => "cancelled",
        }
    }

    /// The same failure, attributed to `suite`: a folded simulation that
    /// fails fails every suite it served, each under its own id with the
    /// same kind and detail. Errors that belong to no suite are returned
    /// unchanged.
    pub fn with_suite(self, suite: impl Into<String>) -> Self {
        match self {
            Self::Simulation { message, .. } => Self::Simulation { suite: suite.into(), message },
            Self::Deadline { budget_ms, .. } => Self::Deadline { suite: suite.into(), budget_ms },
            Self::Cancelled { .. } => Self::Cancelled { suite: suite.into() },
            other @ (Self::Store { .. } | Self::Config(_)) => other,
        }
    }

    /// The suite this error belongs to, when it belongs to one.
    pub fn suite(&self) -> Option<&str> {
        match self {
            Self::Simulation { suite, .. }
            | Self::Deadline { suite, .. }
            | Self::Cancelled { suite } => Some(suite),
            Self::Store { .. } | Self::Config(_) => None,
        }
    }

    /// The human-readable detail *without* the suite id — the `error`
    /// column of the `failures` table, whose `suite` column already names
    /// the suite.
    pub fn detail(&self) -> String {
        match self {
            Self::Simulation { message, .. } => message.clone(),
            Self::Store { path, message } => format!("{message} (store: {path})"),
            Self::Config(message) => message.clone(),
            Self::Deadline { budget_ms, .. } => {
                format!("exceeded the {budget_ms} ms job deadline")
            }
            Self::Cancelled { .. } => "cancelled: a sibling job of this suite failed".to_owned(),
        }
    }
}

impl fmt::Display for JettyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.suite() {
            Some(suite) => write!(f, "suite {suite}: {}", self.detail()),
            None => write!(f, "{}", self.detail()),
        }
    }
}

impl std::error::Error for JettyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_stable_words() {
        let cases = [
            (JettyError::simulation("s", "m"), "simulation"),
            (JettyError::store("p", "m"), "store"),
            (JettyError::config("m"), "config"),
            (JettyError::Deadline { suite: "s".into(), budget_ms: 5 }, "deadline"),
            (JettyError::Cancelled { suite: "s".into() }, "cancelled"),
        ];
        for (e, kind) in cases {
            assert_eq!(e.kind(), kind);
        }
    }

    #[test]
    fn display_prefixes_the_suite_when_there_is_one() {
        let e = JettyError::simulation("cpus4-scale1-sb-moesi-paperbank22", "boom");
        assert_eq!(e.to_string(), "suite cpus4-scale1-sb-moesi-paperbank22: boom");
        let e = JettyError::store("/tmp/x.store", "disk full");
        assert_eq!(e.to_string(), "disk full (store: /tmp/x.store)");
        assert_eq!(e.suite(), None);
    }

    #[test]
    fn deadline_and_cancelled_details_are_self_describing() {
        let d = JettyError::Deadline { suite: "s".into(), budget_ms: 250 };
        assert!(d.detail().contains("250 ms"));
        let c = JettyError::Cancelled { suite: "s".into() };
        assert!(c.detail().contains("sibling"));
    }

    #[test]
    fn with_suite_reattributes_suite_errors_only() {
        let cases = [
            JettyError::simulation("union", "boom"),
            JettyError::Deadline { suite: "union".into(), budget_ms: 9 },
            JettyError::Cancelled { suite: "union".into() },
        ];
        for e in cases {
            let moved = e.clone().with_suite("member");
            assert_eq!(moved.suite(), Some("member"));
            assert_eq!((moved.kind(), moved.detail()), (e.kind(), e.detail()));
        }
        let store = JettyError::store("p", "m");
        assert_eq!(store.clone().with_suite("member"), store);
    }

    #[test]
    fn exit_codes_are_distinct_and_documented() {
        assert_eq!(exit::CLEAN, 0);
        assert_eq!(exit::TOTAL, 1);
        assert_eq!(exit::PARTIAL, 2);
    }
}
