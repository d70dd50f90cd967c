//! The deterministic fault-injection plane and per-batch run policy.
//!
//! A [`FaultPlan`] is a sorted list of [`FaultPoint`]s — "job 3 panics
//! after its 7th Vcycle", "job 0 stalls 2 ms after its 4th" — that the
//! fleet consults while executing a batch. Because every point is keyed
//! by the job's *submission index* and a *Vcycle count into that job's
//! run* (both of which are scheduling-independent), the same plan always
//! perturbs the same work at the same architectural instant, no matter
//! how many workers run the batch or how they interleave. That is what
//! makes the fault-tolerance suite differential: run clean, run injected,
//! and every surviving job must be bit-identical between the two.
//!
//! An empty plan is free: the fleet checks [`FaultPlan::is_empty`] once
//! per job and takes the exact single-`run_vcycles` path it always took.
//!
//! [`BatchPolicy`] bundles the plan with the batch-wide control plane:
//! a cooperative [`CancelToken`], a wall-clock deadline, and fail-fast
//! (first fault cancels the survivors).

use manticore_util::{CancelToken, SmallRng};

/// What an injected fault does when its point is reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The worker thread executing the job panics — exercising the
    /// fleet's per-unit `catch_unwind` isolation. The job
    /// (and, for a gang, its lane-mates) reports
    /// [`crate::JobOutcome::WorkerPanic`]; the rest of the batch is
    /// unaffected.
    WorkerPanic,
    /// The worker sleeps this many milliseconds before continuing —
    /// a slow job, not a failed one. Surfaces scheduling skew (and trips
    /// deadlines) without changing any architectural result.
    Stall(u64),
    /// A spurious [`manticore_machine::MachineError::Injected`] fault is
    /// planted in the machine: the job parks exactly like a real
    /// determinism violation, and a gang parks just that lane while its
    /// siblings keep running.
    Error,
}

/// One injection: after `vcycle` completed Vcycles of job `job`'s run,
/// perform `kind`. Points at or past a job's Vcycle budget never fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPoint {
    /// Submission index of the job to perturb ([`crate::JobOutput::index`];
    /// for [`crate::Fleet::explore`], the child's global ordinal in
    /// submission order).
    pub job: usize,
    /// Completed Vcycles of that job's run after which the fault fires
    /// (0 = before its first Vcycle).
    pub vcycle: u64,
    /// What happens at the point.
    pub kind: FaultKind,
}

/// A deterministic schedule of injected faults for one batch. Empty by
/// default ([`FaultPlan::none`]), in which case the fleet's execution
/// path is byte-for-byte the uninjected one.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Sorted by `(job, vcycle)`; resorted on every insert so builders
    /// can add points in any order.
    points: Vec<FaultPoint>,
}

impl FaultPlan {
    /// The empty plan: nothing is injected, nothing is paid.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// True when no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Number of scheduled fault points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Adds an arbitrary point.
    #[must_use]
    pub fn with(mut self, point: FaultPoint) -> FaultPlan {
        self.points.push(point);
        self.points.sort_by_key(|p| (p.job, p.vcycle));
        self
    }

    /// Schedules a worker panic on job `job` after `vcycle` of its
    /// Vcycles completed.
    #[must_use]
    pub fn panic_at(self, job: usize, vcycle: u64) -> FaultPlan {
        self.with(FaultPoint {
            job,
            vcycle,
            kind: FaultKind::WorkerPanic,
        })
    }

    /// Schedules a `millis`-long stall on job `job` at `vcycle`.
    #[must_use]
    pub fn stall_at(self, job: usize, vcycle: u64, millis: u64) -> FaultPlan {
        self.with(FaultPoint {
            job,
            vcycle,
            kind: FaultKind::Stall(millis),
        })
    }

    /// Schedules a spurious machine fault on job `job` at `vcycle`.
    #[must_use]
    pub fn error_at(self, job: usize, vcycle: u64) -> FaultPlan {
        self.with(FaultPoint {
            job,
            vcycle,
            kind: FaultKind::Error,
        })
    }

    /// A seeded random plan: `faults` points spread over `jobs` jobs and
    /// Vcycles `0..max_vcycle`, kinds drawn uniformly (stalls kept to
    /// 1–3 ms so injected suites stay fast). Same seed, same plan — the
    /// soak harness's generator.
    pub fn seeded(seed: u64, jobs: usize, max_vcycle: u64, faults: usize) -> FaultPlan {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut plan = FaultPlan::none();
        if jobs == 0 {
            return plan;
        }
        for _ in 0..faults {
            let job = rng.gen_range(0..jobs);
            let vcycle = rng.next_u64() % max_vcycle.max(1);
            let kind = match rng.gen_range(0..3) {
                0 => FaultKind::WorkerPanic,
                1 => FaultKind::Stall(1 + rng.next_u64() % 3),
                _ => FaultKind::Error,
            };
            plan = plan.with(FaultPoint { job, vcycle, kind });
        }
        plan
    }

    /// The points aimed at job `index`, in Vcycle order — a sub-slice of
    /// the sorted plan found by binary search, so the per-job lookup is
    /// `O(log points)` and allocation-free.
    pub fn for_job(&self, index: usize) -> &[FaultPoint] {
        let start = self.points.partition_point(|p| p.job < index);
        let end = self.points.partition_point(|p| p.job <= index);
        &self.points[start..end]
    }

    /// All points, sorted by `(job, vcycle)`.
    pub fn points(&self) -> &[FaultPoint] {
        &self.points
    }
}

/// Batch-wide run controls for [`crate::Fleet::run_with`] and friends.
/// The default policy (no token, no deadline, no fail-fast, empty plan)
/// makes `run_with(jobs, &BatchPolicy::default())` identical to
/// `run(jobs)`.
#[derive(Debug, Clone, Default)]
pub struct BatchPolicy {
    /// Cooperative cancellation observed by every job at its Vcycle
    /// boundaries. The fleet never trips the caller's token itself: with
    /// `fail_fast` it derives a child token, so batch-internal
    /// cancellation stays invisible to the caller.
    pub cancel: Option<CancelToken>,
    /// Wall-clock deadline for the whole batch; jobs still running when
    /// it passes stop with [`crate::JobOutcome::Deadline`].
    pub deadline: Option<std::time::Instant>,
    /// When true, the first job that faults (or panics its worker)
    /// cancels every job still running; already-finished jobs keep their
    /// results. Cancellation is cooperative, so in-flight jobs stop at
    /// their next Vcycle boundary with [`crate::JobOutcome::Cancelled`].
    pub fail_fast: bool,
    /// The injection schedule. Empty means the untouched fast path.
    pub faults: FaultPlan,
}

impl BatchPolicy {
    /// `true` when every control is off — the policy that must cost
    /// nothing.
    pub fn is_default(&self) -> bool {
        self.cancel.is_none()
            && self.deadline.is_none()
            && !self.fail_fast
            && self.faults.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_job_slices_the_sorted_plan() {
        let plan = FaultPlan::none()
            .error_at(3, 10)
            .panic_at(1, 5)
            .stall_at(3, 2, 1)
            .error_at(7, 0);
        assert_eq!(plan.len(), 4);
        assert!(plan.for_job(0).is_empty());
        assert_eq!(plan.for_job(1).len(), 1);
        let three = plan.for_job(3);
        assert_eq!(three.len(), 2);
        assert!(three[0].vcycle < three[1].vcycle, "per-job points sorted");
        assert_eq!(plan.for_job(7).len(), 1);
        assert!(plan.for_job(8).is_empty());
    }

    #[test]
    fn seeded_plans_reproduce() {
        let a = FaultPlan::seeded(42, 16, 100, 8);
        let b = FaultPlan::seeded(42, 16, 100, 8);
        assert_eq!(a, b);
        assert_eq!(a.len(), 8);
        assert!(a.points().iter().all(|p| p.job < 16 && p.vcycle < 100));
        assert_ne!(a, FaultPlan::seeded(43, 16, 100, 8));
    }
}
