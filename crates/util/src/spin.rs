//! A spinning barrier: the arrive-await rendezvous the Verilator-analog
//! macro-task executor uses between phases. `std::sync::Barrier` parks threads on a
//! mutex/condvar, costing microseconds per rendezvous — enough to drown
//! the fine-grain synchronization effects §7.1 of the paper measures.
//! Spinning keeps the rendezvous in the hundreds-of-nanoseconds regime of
//! the paper's testbeds.
//!
//! When the host is oversubscribed (more participants than hardware
//! threads), pure spinning is pathological: the spinner burns its whole
//! scheduler quantum waiting for a peer that cannot run. After a bounded
//! number of spins the wait therefore downgrades to `yield_now`, keeping
//! the fast path allocation- and syscall-free while staying usable on
//! small CI machines.
//!
//! A spinning barrier has a failure mode `std::sync::Barrier` shares but
//! makes worse: if a participant dies (panics) between rendezvous, every
//! surviving participant spins forever. The barrier therefore carries a
//! poison flag — [`SpinBarrier::poison`], usually armed through the
//! panic-sensing [`SpinBarrier::guard`] — that wakes all waiters with an
//! error instead. A poisoned barrier stays poisoned: the protocol it was
//! synchronizing is unrecoverable once a participant is gone.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Spins this many iterations before starting to yield the CPU.
const SPIN_LIMIT: u32 = 1 << 14;

/// Spins until `cond()` returns true, downgrading to `yield_now` after a
/// bounded number of iterations. The single backoff policy for every
/// fine-grained wait in the workspace (barrier generations, macro-task
/// dependency counters).
pub fn spin_until(cond: impl Fn() -> bool) {
    let mut spins = 0u32;
    while !cond() {
        if spins < SPIN_LIMIT {
            spins += 1;
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
}

/// Returned by [`SpinBarrier::wait`] when the barrier was poisoned: a
/// participant died and the rendezvous can never complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BarrierPoisoned;

impl std::fmt::Display for BarrierPoisoned {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "spin barrier poisoned: a participant panicked")
    }
}

impl std::error::Error for BarrierPoisoned {}

/// A reusable spinning barrier for a fixed number of participants.
#[derive(Debug)]
pub struct SpinBarrier {
    n: usize,
    arrived: AtomicUsize,
    generation: AtomicUsize,
    poisoned: AtomicBool,
}

impl SpinBarrier {
    /// A barrier for `n` participants.
    pub fn new(n: usize) -> Self {
        SpinBarrier {
            n: n.max(1),
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
        }
    }

    /// Blocks (spinning) until all `n` participants arrive.
    ///
    /// # Errors
    ///
    /// [`BarrierPoisoned`] if the barrier is or becomes poisoned while
    /// waiting — a sibling participant panicked and will never arrive.
    pub fn wait(&self) -> Result<(), BarrierPoisoned> {
        if self.poisoned.load(Ordering::Acquire) {
            return Err(BarrierPoisoned);
        }
        let gen = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            // Last arriver resets and releases the generation. The
            // rendezvous completed, so this wait succeeds even if a
            // sibling poisons concurrently — the *next* wait will error.
            self.arrived.store(0, Ordering::Release);
            self.generation
                .store(gen.wrapping_add(1), Ordering::Release);
            Ok(())
        } else {
            spin_until(|| {
                self.generation.load(Ordering::Acquire) != gen
                    || self.poisoned.load(Ordering::Acquire)
            });
            // A generation change means the rendezvous genuinely
            // completed: that is a success regardless of any poison that
            // raced in after it. Only an abandoned rendezvous errors.
            if self.generation.load(Ordering::Acquire) != gen {
                Ok(())
            } else {
                Err(BarrierPoisoned)
            }
        }
    }

    /// Permanently poisons the barrier, waking every current and future
    /// waiter with [`BarrierPoisoned`]. Idempotent. Deliberately does not
    /// touch the generation counter: waiters spin on the poison flag
    /// directly, and a generation bump would be indistinguishable from a
    /// completed rendezvous.
    pub fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
    }

    /// True once [`SpinBarrier::poison`] has run.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// A drop guard that poisons the barrier if the current scope unwinds
    /// from a panic. Hold one for the lifetime of each participant:
    ///
    /// ```
    /// use manticore_util::spin::SpinBarrier;
    /// let barrier = SpinBarrier::new(1);
    /// {
    ///     let _guard = barrier.guard();
    ///     barrier.wait().unwrap();
    /// } // normal exit: barrier stays clean
    /// assert!(!barrier.is_poisoned());
    /// ```
    pub fn guard(&self) -> BarrierPanicGuard<'_> {
        BarrierPanicGuard { barrier: self }
    }
}

/// Poisons its barrier on drop *iff* the thread is panicking. See
/// [`SpinBarrier::guard`].
#[derive(Debug)]
pub struct BarrierPanicGuard<'a> {
    barrier: &'a SpinBarrier,
}

impl Drop for BarrierPanicGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.barrier.poison();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::SpinBarrier;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn barrier_synchronizes_phases() {
        let n = 4;
        let barrier = SpinBarrier::new(n);
        let counter = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..n {
                s.spawn(|| {
                    for phase in 1..=100usize {
                        counter.fetch_add(1, Ordering::Relaxed);
                        barrier.wait().unwrap();
                        // After the barrier every thread of this phase has
                        // incremented.
                        assert!(counter.load(Ordering::Relaxed) >= phase * n);
                        barrier.wait().unwrap();
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100 * n);
    }

    #[test]
    fn panicking_participant_poisons_instead_of_hanging() {
        let n = 4;
        let barrier = SpinBarrier::new(n);
        let errored = AtomicUsize::new(0);
        std::thread::scope(|s| {
            // n-1 well-behaved participants: first rendezvous succeeds,
            // the second must error out instead of spinning forever.
            for _ in 0..n - 1 {
                s.spawn(|| {
                    let _guard = barrier.guard();
                    barrier.wait().unwrap();
                    if barrier.wait().is_err() {
                        errored.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            // The faulty participant dies between the two rendezvous; the
            // contained panic drops its guard mid-unwind, which poisons.
            s.spawn(|| {
                let died = crate::panic::catch_silent_mut(|| {
                    let _guard = barrier.guard();
                    barrier.wait().unwrap();
                    panic!("worker died mid-protocol");
                });
                assert_eq!(died.unwrap_err(), "worker died mid-protocol");
            });
        });
        assert!(barrier.is_poisoned());
        assert_eq!(
            errored.load(Ordering::Relaxed),
            n - 1,
            "every survivor must observe the poison"
        );
        // Late arrivals error immediately.
        assert!(barrier.wait().is_err());
    }

    #[test]
    fn guard_is_inert_without_a_panic() {
        let barrier = SpinBarrier::new(1);
        {
            let _guard = barrier.guard();
            barrier.wait().unwrap();
        }
        assert!(!barrier.is_poisoned());
    }
}
