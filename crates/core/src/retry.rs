//! Spin → yield backoff for optimistic retry loops.
//!
//! A claim that can lose a CAS race retries, and a pile-up of claimants
//! re-reading the same line at full speed thrashes it. [`Backoff`]
//! provides the standard spin → yield escalation (the `crossbeam-utils`
//! idiom) between attempts; its one user is the byte ring's role claim
//! in `bq-shm` (`claim_role`), which retries only on lost races and
//! returns its own error when the role is held.

use std::hint;
use std::thread;

/// Exponential spin/yield backoff for optimistic-concurrency retry loops.
///
/// Each [`snooze`](Backoff::snooze) doubles the spin count up to
/// `2^SPIN_LIMIT`, after which it yields the thread instead — contending
/// peers get cache-line relief first, the scheduler second. The struct is
/// deliberately tiny (one counter) and lives on the caller's stack.
#[derive(Debug, Clone, Default)]
pub struct Backoff {
    step: u32,
}

impl Backoff {
    /// Steps spent busy-spinning before escalating to `yield_now`.
    const SPIN_LIMIT: u32 = 6;

    /// Fresh backoff (first snooze spins just once).
    pub fn new() -> Self {
        Backoff { step: 0 }
    }

    /// Wait a little longer than last time: `2^step` spin hints while
    /// `step < SPIN_LIMIT`, a thread yield afterwards.
    pub fn snooze(&mut self) {
        if self.step < Self::SPIN_LIMIT {
            for _ in 0..(1u32 << self.step) {
                hint::spin_loop();
            }
        } else {
            thread::yield_now();
        }
        self.step = self.step.saturating_add(1);
    }

    /// Has the backoff escalated past pure spinning? Callers use this to
    /// switch strategies (e.g. park instead of steal) once contention is
    /// evidently persistent.
    pub fn is_yielding(&self) -> bool {
        self.step >= Self::SPIN_LIMIT
    }

    /// Restart the escalation (after a successful attempt).
    pub fn reset(&mut self) {
        self.step = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_escalates_to_yielding() {
        let mut b = Backoff::new();
        assert!(!b.is_yielding());
        for _ in 0..10 {
            b.snooze();
        }
        assert!(b.is_yielding(), "persistent contention is visible");
        b.reset();
        assert!(!b.is_yielding());
    }
}
