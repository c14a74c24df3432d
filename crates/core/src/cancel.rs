//! Cooperative cancellation for in-flight executions.
//!
//! A [`CancelToken`] is a cheap, clonable handle that the engine polls at
//! its natural scheduling boundaries — band starts, tile starts, and
//! merge-tree passes. Cancellation is *cooperative*: nothing is preempted,
//! the engine simply stops planning new work and unwinds with
//! [`crate::CoreError::DeadlineExceeded`]. Two properties make the token
//! safe to thread through every dataflow path unconditionally:
//!
//! * **Unarmed tokens are free.** [`CancelToken::never`] (the
//!   [`ExecutionRequest`](crate::ExecutionRequest) default) carries no
//!   state at all; every poll is a branch on a `None`. Results and reports
//!   are byte-identical with or without the unarmed token — the
//!   cancellation layer is result-transparent, the same contract the
//!   sharding and format tiers honor.
//! * **Firing is a latch.** Once the deadline passes (or [`cancel`] is
//!   called) the shared flag is set and every subsequent poll is a single
//!   relaxed atomic load — concurrent band workers all observe the same
//!   decision without re-reading the clock.
//!
//! [`cancel`]: CancelToken::cancel

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug)]
struct Inner {
    /// The fired latch: set by `cancel()` or by the first poll that
    /// observes the deadline in the past.
    fired: AtomicBool,
    /// Absolute deadline; `None` for a manually-armed token.
    deadline: Option<Instant>,
}

/// Shared cancellation handle for one execution (see the module docs).
///
/// Clones share the same underlying state, so arming a token once and
/// handing clones to concurrent workers cancels them all together.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Option<Arc<Inner>>,
}

impl CancelToken {
    /// The unarmed token: never cancels, costs one `None` check per poll.
    /// This is the default on every [`crate::ExecutionRequest`].
    pub fn never() -> Self {
        Self { inner: None }
    }

    /// A token that fires once `deadline` passes.
    pub fn with_deadline(deadline: Instant) -> Self {
        Self {
            inner: Some(Arc::new(Inner {
                fired: AtomicBool::new(false),
                deadline: Some(deadline),
            })),
        }
    }

    /// A token that fires `budget` from now.
    pub fn after(budget: Duration) -> Self {
        Self::with_deadline(Instant::now() + budget)
    }

    /// An armed token with no deadline — it fires only through
    /// [`CancelToken::cancel`].
    pub fn manual() -> Self {
        Self {
            inner: Some(Arc::new(Inner {
                fired: AtomicBool::new(false),
                deadline: None,
            })),
        }
    }

    /// Whether this token can ever fire.
    pub fn is_armed(&self) -> bool {
        self.inner.is_some()
    }

    /// Fires the token explicitly. A no-op on an unarmed token.
    pub fn cancel(&self) {
        if let Some(inner) = &self.inner {
            inner.fired.store(true, Ordering::Relaxed);
        }
    }

    /// Polls the token: `true` once cancelled. The first poll past the
    /// deadline latches the flag; later polls are a single atomic load.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        match &self.inner {
            None => false,
            Some(inner) => {
                if inner.fired.load(Ordering::Relaxed) {
                    return true;
                }
                match inner.deadline {
                    Some(d) if Instant::now() >= d => {
                        inner.fired.store(true, Ordering::Relaxed);
                        true
                    }
                    _ => false,
                }
            }
        }
    }

    /// Polls the token as a `Result`, the form the engine propagates.
    ///
    /// # Errors
    ///
    /// [`crate::CoreError::DeadlineExceeded`] once cancelled.
    #[inline]
    pub fn check(&self) -> crate::Result<()> {
        if self.is_cancelled() {
            Err(crate::CoreError::DeadlineExceeded)
        } else {
            Ok(())
        }
    }

    /// Time left before the deadline fires; `None` when the token has no
    /// deadline (unarmed or manual). A fired token reports zero.
    pub fn remaining(&self) -> Option<Duration> {
        let inner = self.inner.as_ref()?;
        let deadline = inner.deadline?;
        if inner.fired.load(Ordering::Relaxed) {
            return Some(Duration::ZERO);
        }
        Some(deadline.saturating_duration_since(Instant::now()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_token_never_cancels() {
        let t = CancelToken::never();
        assert!(!t.is_armed());
        assert!(!t.is_cancelled());
        t.cancel(); // no-op
        assert!(!t.is_cancelled());
        assert!(t.check().is_ok());
        assert_eq!(t.remaining(), None);
    }

    #[test]
    fn default_is_unarmed() {
        assert!(!CancelToken::default().is_armed());
    }

    #[test]
    fn expired_deadline_latches() {
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(t.is_armed());
        assert!(t.is_cancelled());
        assert!(t.is_cancelled(), "latched after first observation");
        assert!(matches!(t.check(), Err(crate::CoreError::DeadlineExceeded)));
        assert_eq!(t.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn future_deadline_does_not_fire_early() {
        let t = CancelToken::after(Duration::from_secs(3600));
        assert!(!t.is_cancelled());
        assert!(t.remaining().expect("deadline set") > Duration::from_secs(3000));
    }

    #[test]
    fn manual_cancel_is_shared_across_clones() {
        let t = CancelToken::manual();
        let clone = t.clone();
        assert!(!clone.is_cancelled());
        assert_eq!(t.remaining(), None, "manual token has no deadline");
        t.cancel();
        assert!(clone.is_cancelled());
        assert!(clone.check().is_err());
    }
}
