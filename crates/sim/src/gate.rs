//! Cooperative run control: a deadline + cancellation token checked at
//! chunk boundaries.
//!
//! The simulator's unit of interruption is the chunk ([`System::CHUNK_LEN`]
//! references, stepped and then replayed at one flush): checking any finer
//! would put a clock read on the hot path, and any coarser would make a
//! runaway configuration uncancellable. A [`RunGate`] bundles the two
//! reasons a run may stop early — a wall-clock budget expiring, or a cooperative
//! cancellation flag raised by whoever owns the run (the experiment
//! engine raises it when a sibling job of the same suite has already
//! failed, so the rest of the suite stops burning CPU on a result that
//! can never be used).
//!
//! The default gate is unbounded and free: [`RunGate::check`] on an
//! unbounded gate is two `Option` tests, no clock read, no atomic.
//!
//! [`System::CHUNK_LEN`]: crate::System::CHUNK_LEN

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a gated run stopped before its trace was exhausted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GateStop {
    /// The wall-clock budget expired.
    DeadlineExpired {
        /// The budget that was exceeded, in milliseconds.
        budget_ms: u64,
    },
    /// The cancellation flag was raised by the gate's owner.
    Cancelled,
}

/// A deadline and/or cancellation token, checked cooperatively at chunk
/// boundaries.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use jetty_sim::{GateStop, RunGate};
///
/// let gate = RunGate::unbounded();
/// assert_eq!(gate.check(), Ok(()));
///
/// let gate = RunGate::with_budget(Duration::ZERO);
/// assert_eq!(gate.check(), Err(GateStop::DeadlineExpired { budget_ms: 0 }));
/// ```
#[derive(Clone, Debug, Default)]
pub struct RunGate {
    /// Absolute expiry plus the originating budget (kept for reporting).
    deadline: Option<(Instant, u64)>,
    cancel: Option<Arc<AtomicBool>>,
}

impl RunGate {
    /// A gate that never stops anything (the default).
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// A gate whose clock starts now and expires after `budget`.
    pub fn with_budget(budget: Duration) -> Self {
        let budget_ms = budget.as_millis().min(u128::from(u64::MAX)) as u64;
        Self { deadline: Some((Instant::now() + budget, budget_ms)), cancel: None }
    }

    /// Attaches a shared cancellation flag (raised by the owner via
    /// `store(true)`; observed at the next [`RunGate::check`]).
    pub fn with_cancel(mut self, flag: Arc<AtomicBool>) -> Self {
        self.cancel = Some(flag);
        self
    }

    /// May the run proceed into its next chunk? Cancellation is checked
    /// before the deadline: an owner-initiated stop is the more specific
    /// reason, and checking it first keeps the common unbounded path free
    /// of clock reads.
    pub fn check(&self) -> Result<(), GateStop> {
        if let Some(flag) = &self.cancel {
            if flag.load(Ordering::Relaxed) {
                return Err(GateStop::Cancelled);
            }
        }
        if let Some((expiry, budget_ms)) = self.deadline {
            if Instant::now() >= expiry {
                return Err(GateStop::DeadlineExpired { budget_ms });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_gate_always_passes() {
        let gate = RunGate::unbounded();
        for _ in 0..3 {
            assert_eq!(gate.check(), Ok(()));
        }
    }

    #[test]
    fn zero_budget_expires_immediately_and_reports_it() {
        let gate = RunGate::with_budget(Duration::ZERO);
        assert_eq!(gate.check(), Err(GateStop::DeadlineExpired { budget_ms: 0 }));
    }

    #[test]
    fn generous_budget_passes_now() {
        let gate = RunGate::with_budget(Duration::from_secs(3600));
        assert_eq!(gate.check(), Ok(()));
    }

    #[test]
    fn cancellation_flag_stops_the_gate_and_wins_over_the_deadline() {
        let flag = Arc::new(AtomicBool::new(false));
        let gate = RunGate::with_budget(Duration::ZERO).with_cancel(Arc::clone(&flag));
        assert_eq!(
            gate.check(),
            Err(GateStop::DeadlineExpired { budget_ms: 0 }),
            "flag not raised yet: the deadline is the stop reason"
        );
        flag.store(true, Ordering::Relaxed);
        assert_eq!(gate.check(), Err(GateStop::Cancelled), "cancellation is the specific reason");
    }
}
