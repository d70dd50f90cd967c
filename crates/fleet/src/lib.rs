//! Compile-once / run-many batched simulation: the fleet engine.
//!
//! Manticore's schedule is a pure function of the compiled program, which
//! the machine crate already exploits *within* one run (validate-once /
//! replay-many, fused micro-ops). This crate exploits it *across* runs:
//! one immutable [`CompiledProgram`] — replay tape and micro-op streams
//! included — is shared behind an `Arc` by *N* concurrent simulations with
//! distinct inputs and knobs, so a sweep of a thousand scenarios pays for
//! compilation, validation-schedule freezing, and micro-op lowering once
//! instead of a thousand times, and then runs the scenarios in parallel.
//!
//! The pieces:
//!
//! - [`SimJob`] — the description of one simulation: which program, the
//!   per-run input vector (register pokes applied before the first
//!   Vcycle), the engine knobs (replay lowering, hazard strictness), and
//!   the Vcycle budget. A job can also *resume* an existing [`Machine`]
//!   ([`SimJob::resume`]), which is how a fleet drives long-running
//!   simulations in slices.
//! - [`Fleet`] — a handle on a persistent pool of `workers` threads,
//!   shared by the fleet's clones. The threads are spawned the first
//!   time the fleet submits work, park on a condvar while idle, and are
//!   joined (after the queues drain) when the last handle drops. Every
//!   batch entry point and every [`Fleet::explore`] round submits owned
//!   units of work into the pool: they are dealt round-robin into
//!   per-worker deques, each worker drains its own deque from the front
//!   and steals from the back of victims chosen by a seeded [`SmallRng`]
//!   when it runs dry. A one-worker fleet's waiting caller runs its
//!   units itself, in the order that worker would. No batch spawns a
//!   thread.
//! - [`JobOutput`] — one job's outcome plus its finished machine (final
//!   registers, counters, displays all readable). Workers send each
//!   output down a channel to the thread that called the batch, which
//!   hands it to the caller's sink (streaming entry points) or files it
//!   into its submission slot. **Collection order is the submission
//!   order**, bit-for-bit independent of how workers interleaved: every
//!   job runs on a machine of its own, and its output carries its
//!   submission index. [`Fleet::submit_ganged`] returns at once instead
//!   and calls an owned sink on the worker — how a server keeps the pool
//!   fed without waiting at a batch barrier.
//! - [`Fleet::run_ganged`] — the same batch API with lane batching:
//!   compatible jobs (one program, one set of engine knobs, one budget)
//!   execute K-at-a-time as lanes of a lockstep
//!   [`manticore_machine::GangMachine`], so each micro-op is fetched and
//!   decoded once per K scenarios instead of once per scenario. Outputs
//!   are bit-identical to [`Fleet::run`] and still in submission order.
//!
//! Determinism is structural, not best-effort: jobs share nothing mutable
//! (the `Arc`'d program is read-only), so scheduling can only change *when*
//! a job runs, never *what* it computes — the equivalence suite asserts
//! fleet runs are bit-identical to running each job alone.
//!
//! **Fault containment.** A batch is only as useful as its worst job, so
//! the fleet treats failure as data rather than letting it take the batch
//! down: a panicking job is caught at the worker
//! ([`manticore_util::catch_silent`]) and reported as
//! [`JobOutcome::WorkerPanic`] while its batch-mates complete; every
//! engine polls a cooperative [`manticore_util::CancelToken`] and
//! wall-clock deadline at Vcycle boundaries
//! ([`BatchPolicy`], [`SimJob::deadline`]); and a seeded [`FaultPlan`]
//! deterministically injects panics, stalls, and spurious machine faults
//! for the differential fault-tolerance suite. Every output carries a
//! typed [`JobOutcome`] saying how its run ended.

use std::collections::HashMap;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Instant;

use manticore_isa::{CoreId, Reg};
pub use manticore_machine::CompiledProgram;
use manticore_machine::{
    Checkpoint, CoverageMap, GangMachine, Interrupt, Machine, MachineError, ReplayEngine,
    RunOutcome, MAX_LANES,
};
use manticore_util::{catch_silent_mut, CancelToken, SmallRng};

mod fault;
mod pool;

pub use fault::{BatchPolicy, FaultKind, FaultPlan, FaultPoint};
use pool::{Pool, Task};

/// The gang-compatibility key: program pointer, replay/engine/strict
/// knobs, Vcycle budget, and cancellation-domain identity.
type GangKey = (usize, u8, u8, u8, u64, usize);

/// Where a job's machine comes from: a fresh boot of a shared program, or
/// an existing run handed back to the fleet for another slice.
#[derive(Debug)]
enum JobSource {
    Fresh(Arc<CompiledProgram>),
    Resume(Box<Machine>),
}

/// The description of one simulation in a fleet batch: program, input
/// vector, engine knobs, and Vcycle budget. Knobs left unset keep the
/// machine's defaults (fresh boots) or the machine's current settings
/// (resumed runs).
#[derive(Debug)]
pub struct SimJob {
    source: JobSource,
    /// The per-run input vector: architectural register overwrites
    /// applied before execution.
    pokes: Vec<(CoreId, Reg, u16)>,
    replay: Option<bool>,
    engine: Option<ReplayEngine>,
    strict: Option<bool>,
    vcycles: u64,
    deadline: Option<std::time::Instant>,
    cancel: Option<CancelToken>,
}

impl SimJob {
    /// A fresh run of `program` with a budget of `vcycles` virtual cycles.
    /// The program is shared, not copied — booting the run only allocates
    /// its mutable state.
    pub fn new(program: &Arc<CompiledProgram>, vcycles: u64) -> SimJob {
        SimJob {
            source: JobSource::Fresh(Arc::clone(program)),
            pokes: Vec::new(),
            replay: None,
            engine: None,
            strict: None,
            vcycles,
            deadline: None,
            cancel: None,
        }
    }

    /// Resumes an existing machine for another `vcycles` — the fleet-side
    /// continuation of [`Machine::run_vcycles`]. Knobs and pokes still
    /// apply (on top of the machine's current settings).
    pub fn resume(machine: Machine, vcycles: u64) -> SimJob {
        SimJob {
            source: JobSource::Resume(Box::new(machine)),
            pokes: Vec::new(),
            replay: None,
            engine: None,
            strict: None,
            vcycles,
            deadline: None,
            cancel: None,
        }
    }

    /// Adds one element of the input vector: overwrite `reg` on `core`
    /// with `value` before the run starts.
    #[must_use]
    pub fn poke(mut self, core: CoreId, reg: Reg, value: u16) -> SimJob {
        self.pokes.push((core, reg, value));
        self
    }

    /// Enables or disables the validate-once / replay-many fast path.
    #[must_use]
    pub fn replay(mut self, enabled: bool) -> SimJob {
        self.replay = Some(enabled);
        self
    }

    /// Selects the replay lowering (tape or fused micro-ops).
    #[must_use]
    pub fn replay_engine(mut self, engine: ReplayEngine) -> SimJob {
        self.engine = Some(engine);
        self
    }

    /// Selects strict or permissive hazard checking.
    #[must_use]
    pub fn strict_hazards(mut self, strict: bool) -> SimJob {
        self.strict = Some(strict);
        self
    }

    /// Attaches a wall-clock deadline to this job alone: the run stops
    /// cooperatively at the first Vcycle boundary past it, reporting
    /// [`JobOutcome::Deadline`]. Combines with a batch deadline
    /// ([`BatchPolicy::deadline`]) by taking whichever is earlier. A
    /// deadline'd job never joins a gang (lanes run in lockstep, so a
    /// per-lane clock cannot be honored there).
    #[must_use]
    pub fn deadline(mut self, deadline: std::time::Instant) -> SimJob {
        self.deadline = Some(deadline);
        self
    }

    /// Attaches a cancellation token to this job alone: tripping it stops
    /// *this* run at the next Vcycle boundary ([`JobOutcome::Cancelled`])
    /// without touching its batch-mates — how a server cancels one
    /// client's work when that client disconnects. Combines with a batch
    /// token ([`BatchPolicy::cancel`]) so whichever trips first stops the
    /// run; neither cancellation leaks into the other's domain.
    ///
    /// Jobs carrying a token still gang, but only with jobs sharing the
    /// *same* token (same [`CancelToken::id`]) — a lockstep gang has one
    /// control plane, so it must belong to one cancellation domain.
    #[must_use]
    pub fn cancel_token(mut self, token: CancelToken) -> SimJob {
        self.cancel = Some(token);
        self
    }

    /// True when this job can join a gang: a fresh boot (no existing
    /// machine to import) with no per-job deadline (the gang runs in
    /// lockstep under the batch clock only). Which gang it may join is
    /// decided by [`SimJob::gang_key`].
    fn gangable(&self) -> bool {
        matches!(self.source, JobSource::Fresh(_)) && self.deadline.is_none()
    }

    /// The compatibility key for gang grouping: jobs in one gang must
    /// share the program (pointer identity), every engine knob, the
    /// Vcycle budget, and the cancellation domain (per-job token
    /// identity, 0 when none) — everything except the input vector, which
    /// is per-lane by design. Only meaningful for [`SimJob::gangable`]
    /// jobs.
    fn gang_key(&self) -> GangKey {
        let JobSource::Fresh(program) = &self.source else {
            unreachable!("gang_key is only asked of gangable jobs")
        };
        let replay = match self.replay {
            None => 0u8,
            Some(false) => 1,
            Some(true) => 2,
        };
        let engine = match self.engine {
            None => 0u8,
            Some(ReplayEngine::Tape) => 1,
            Some(ReplayEngine::MicroOps) => 2,
        };
        let strict = match self.strict {
            None => 0u8,
            Some(false) => 1,
            Some(true) => 2,
        };
        (
            Arc::as_ptr(program) as usize,
            replay,
            engine,
            strict,
            self.vcycles,
            self.cancel.as_ref().map_or(0, CancelToken::id),
        )
    }

    /// True when `self` and `other` would share one gang in a lane-batched
    /// run ([`Fleet::run_ganged`]): both are gangable fresh boots with the
    /// same program, engine knobs, Vcycle budget and cancellation domain.
    /// A scheduler uses this to pick jobs that will run as one unit.
    pub fn gangs_with(&self, other: &SimJob) -> bool {
        self.gangable() && other.gangable() && self.gang_key() == other.gang_key()
    }

    /// The effective cancellation token for this run: the per-job token,
    /// the batch token, or (when both are present) a two-parent merge
    /// tripped by whichever fires first.
    fn effective_cancel(&self, batch: Option<&CancelToken>) -> Option<CancelToken> {
        match (&self.cancel, batch) {
            (Some(job), Some(batch)) => Some(CancelToken::either(job, batch)),
            (Some(job), None) => Some(job.clone()),
            (None, Some(batch)) => Some(batch.clone()),
            (None, None) => None,
        }
    }

    /// Boots (or unwraps) the machine and runs the job to its budget.
    /// This is the entire per-job execution — it touches nothing shared
    /// except the read-only program, which is what makes fleet results
    /// independent of worker interleaving.
    fn execute(self, index: usize, ctx: &BatchCtx) -> JobOutput {
        let cancel = self.effective_cancel(ctx.cancel.as_ref());
        let mut machine = match self.source {
            JobSource::Fresh(program) => Machine::from_program(program),
            JobSource::Resume(machine) => *machine,
        };
        if let Some(strict) = self.strict {
            machine.set_strict_hazards(strict);
        }
        if let Some(enabled) = self.replay {
            machine.set_replay(enabled);
        }
        if let Some(engine) = self.engine {
            machine.set_replay_engine(engine);
        }
        for &(core, reg, value) in &self.pokes {
            machine.poke_reg(core, reg, value);
        }
        // Per-job deadline and batch deadline combine to the earlier one.
        let deadline = match (self.deadline, ctx.deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        machine.set_cancel_token(cancel);
        machine.set_deadline(deadline);
        let result = run_solo_with_faults(&mut machine, self.vcycles, ctx.faults.for_job(index));
        // The controls belong to this batch, not to the machine the
        // caller may resume later.
        machine.set_cancel_token(None);
        machine.set_deadline(None);
        let outcome = JobOutcome::classify(&result, Some(&machine));
        JobOutput {
            index,
            outcome,
            result,
            machine: Some(machine),
        }
    }
}

/// Runs one solo machine to `budget` Vcycles, firing the job's fault
/// points at their Vcycle positions. With no points this is exactly one
/// [`Machine::run_vcycles`] call — the clean path pays nothing. With
/// points, the run is sliced at each injection Vcycle and the slice
/// outcomes are stitched back into one [`RunOutcome`], so the
/// architectural trajectory up to the fault is bit-identical to an
/// uninjected run.
fn run_solo_with_faults(
    machine: &mut Machine,
    budget: u64,
    points: &[FaultPoint],
) -> Result<RunOutcome, MachineError> {
    if points.is_empty() {
        return machine.run_vcycles(budget);
    }
    let mut acc = RunOutcome::default();
    let mut done = 0u64;
    // Stitches one slice's outcome into the accumulator; true while the
    // run should continue.
    fn merge(acc: &mut RunOutcome, slice: RunOutcome) -> bool {
        acc.vcycles_run += slice.vcycles_run;
        acc.finished |= slice.finished;
        acc.displays.extend(slice.displays);
        acc.interrupted = slice.interrupted;
        !(acc.finished || acc.interrupted.is_some())
    }
    for point in points {
        // Points at or past the budget never fire; duplicates at one
        // Vcycle all fire (the slice between them is empty).
        if point.vcycle >= budget {
            break;
        }
        let slice = point.vcycle - done;
        if slice > 0 {
            match machine.run_vcycles(slice) {
                Ok(out) => {
                    done += out.vcycles_run;
                    if !merge(&mut acc, out) {
                        return Ok(acc);
                    }
                }
                Err(e) => {
                    // Same contract as an unsliced faulting run: displays
                    // produced before the abort stay pending on the
                    // machine.
                    machine.requeue_displays(std::mem::take(&mut acc.displays));
                    return Err(e);
                }
            }
        }
        match point.kind {
            FaultKind::WorkerPanic => {
                panic!(
                    "injected worker panic: job {} at vcycle {}",
                    point.job, point.vcycle
                );
            }
            FaultKind::Stall(millis) => {
                std::thread::sleep(std::time::Duration::from_millis(millis));
            }
            FaultKind::Error => {
                machine.inject_fault(MachineError::Injected {
                    vcycle: machine.counters().vcycles,
                });
                machine.requeue_displays(std::mem::take(&mut acc.displays));
                // The machine is parked; report the planted fault.
                return Err(machine.fault().cloned().expect("fault just planted"));
            }
        }
    }
    if done < budget {
        match machine.run_vcycles(budget - done) {
            Ok(out) => {
                merge(&mut acc, out);
            }
            Err(e) => {
                machine.requeue_displays(std::mem::take(&mut acc.displays));
                return Err(e);
            }
        }
    }
    Ok(acc)
}

/// How one job's run ended — the typed summary every [`JobOutput`]
/// carries alongside the raw result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobOutcome {
    /// The design reached `$finish` within the budget.
    Complete,
    /// The Vcycle budget ran out with the design still going — resume it
    /// with [`SimJob::resume`].
    BudgetExhausted,
    /// The run stopped at a Vcycle boundary past its deadline
    /// ([`SimJob::deadline`] or [`BatchPolicy::deadline`]).
    Deadline,
    /// The run observed its [`CancelToken`] (the caller's batch token,
    /// the job's own [`SimJob::cancel_token`], or batch fail-fast) and
    /// stopped at a Vcycle boundary.
    Cancelled,
    /// The machine aborted on a [`MachineError`] — a real determinism
    /// violation, a failed assertion, or an injected
    /// [`MachineError::Injected`] fault. The parked machine is readable.
    Faulted,
    /// The worker thread executing the job panicked; the panic was
    /// contained and the rest of the batch completed. No machine state
    /// survives ([`JobOutput::machine`] is `None`).
    WorkerPanic,
}

impl JobOutcome {
    /// Derives the outcome label from a run result and (when one
    /// survived) the machine that produced it.
    fn classify(
        result: &Result<RunOutcome, MachineError>,
        machine: Option<&Machine>,
    ) -> JobOutcome {
        match result {
            Err(MachineError::WorkerPanic { .. }) => JobOutcome::WorkerPanic,
            Err(_) => JobOutcome::Faulted,
            Ok(out) => {
                if out.finished || machine.is_some_and(|m| m.finished()) {
                    JobOutcome::Complete
                } else {
                    match out.interrupted {
                        Some(Interrupt::Cancelled) => JobOutcome::Cancelled,
                        Some(Interrupt::Deadline) => JobOutcome::Deadline,
                        None => JobOutcome::BudgetExhausted,
                    }
                }
            }
        }
    }

    /// True for the outcomes that trip a fail-fast batch: the job's run
    /// is gone for a reason that was not the caller's own control plane.
    pub fn is_failure(self) -> bool {
        matches!(self, JobOutcome::Faulted | JobOutcome::WorkerPanic)
    }
}

/// One job's outcome: its submission index, the typed outcome label, the
/// run result, and the finished machine (registers, counters, and pending
/// displays readable).
#[derive(Debug)]
pub struct JobOutput {
    /// The job's position in the submitted batch — [`Fleet::run`] returns
    /// outputs sorted by this, so `outputs[i]` is always job `i`.
    pub index: usize,
    /// How the run ended.
    pub outcome: JobOutcome,
    /// The run outcome, or the determinism violation / assertion failure
    /// that aborted it.
    pub result: Result<RunOutcome, MachineError>,
    /// The machine after the run (also the handle to continue it via
    /// [`SimJob::resume`]). `None` only when the worker executing the job
    /// panicked ([`JobOutcome::WorkerPanic`]) — unwound state is never
    /// exposed.
    pub machine: Option<Machine>,
}

impl JobOutput {
    /// The surviving machine.
    ///
    /// # Panics
    ///
    /// If the job's worker panicked ([`JobOutcome::WorkerPanic`]) — check
    /// [`JobOutput::machine`] when the batch ran under a [`FaultPlan`]
    /// that injects panics.
    pub fn machine(&self) -> &Machine {
        self.machine
            .as_ref()
            .expect("job's worker panicked: no machine state survives")
    }

    /// Consumes the output, yielding the surviving machine; panics like
    /// [`JobOutput::machine`].
    pub fn into_machine(self) -> Machine {
        self.machine
            .expect("job's worker panicked: no machine state survives")
    }
}

/// The per-batch execution context every unit of a batch shares: the
/// effective cancel token, the batch deadline, the fault plan, and
/// whether a failure cancels the rest. Owned, so units can outlive the
/// call that submitted them.
#[derive(Debug)]
struct BatchCtx {
    cancel: Option<CancelToken>,
    deadline: Option<Instant>,
    faults: FaultPlan,
    fail_fast: bool,
}

impl BatchCtx {
    fn new(policy: &BatchPolicy) -> BatchCtx {
        // Fail-fast needs a token to trip, and a caller token must never
        // be tripped by the fleet itself — so fail-fast on top of a
        // caller token derives a child.
        let cancel = match (&policy.cancel, policy.fail_fast) {
            (Some(token), false) => Some(token.clone()),
            (Some(token), true) => Some(token.child()),
            (None, true) => Some(CancelToken::new()),
            (None, false) => None,
        };
        BatchCtx {
            cancel,
            deadline: policy.deadline,
            faults: policy.faults.clone(),
            fail_fast: policy.fail_fast,
        }
    }
}

/// One schedulable unit on the worker pool: a solo job, or a gang of
/// compatible jobs executed as lanes of one [`GangMachine`].
#[derive(Debug)]
enum Unit {
    Single(usize, SimJob),
    Gang(Vec<(usize, SimJob)>),
}

impl Unit {
    /// The submission indexes of every job in this unit — captured before
    /// execution so a panicking unit can still be accounted for.
    fn job_indexes(&self) -> Vec<usize> {
        match self {
            Unit::Single(index, _) => vec![*index],
            Unit::Gang(group) => group.iter().map(|(index, _)| *index).collect(),
        }
    }

    /// Runs the unit to completion, producing one output per job in it.
    fn execute(self, ctx: &BatchCtx, outs: &mut Vec<JobOutput>) {
        match self {
            Unit::Single(index, job) => outs.push(job.execute(index, ctx)),
            Unit::Gang(group) => {
                // All jobs share a gang key (program, knobs, budget); the
                // input vectors are per-lane.
                let lanes = group.len();
                let (program, vcycles, strict, replay, engine) = {
                    let job = &group[0].1;
                    let JobSource::Fresh(program) = &job.source else {
                        unreachable!("gangs are built from fresh jobs only")
                    };
                    (
                        Arc::clone(program),
                        job.vcycles,
                        job.strict,
                        job.replay,
                        job.engine,
                    )
                };
                let mut gang = GangMachine::from_program(program, lanes);
                if let Some(strict) = strict {
                    gang.set_strict_hazards(strict);
                }
                if let Some(enabled) = replay {
                    gang.set_replay(enabled);
                }
                if let Some(engine) = engine {
                    gang.set_replay_engine(engine);
                }
                for (lane, (_, job)) in group.iter().enumerate() {
                    for &(core, reg, value) in &job.pokes {
                        gang.poke_reg(lane, core, reg, value);
                    }
                }
                // All lanes share one cancellation domain (the gang key
                // includes the token identity), so lane 0's effective
                // token is the whole gang's.
                gang.set_cancel_token(group[0].1.effective_cancel(ctx.cancel.as_ref()));
                gang.set_deadline(ctx.deadline);
                // Lane -> submission index, for routing per-lane fault
                // points.
                let lane_jobs: Vec<usize> = group.iter().map(|(index, _)| *index).collect();
                let results = run_gang_with_faults(&mut gang, vcycles, &lane_jobs, &ctx.faults);
                gang.set_cancel_token(None);
                gang.set_deadline(None);
                let machines = gang.into_machines();
                for (((index, _), result), machine) in group.iter().zip(results).zip(machines) {
                    let outcome = JobOutcome::classify(&result, Some(&machine));
                    outs.push(JobOutput {
                        index: *index,
                        outcome,
                        result,
                        machine: Some(machine),
                    });
                }
            }
        }
    }
}

/// Runs a gang to `budget` Vcycles, firing its member jobs' fault points
/// at their (lockstep) Vcycle positions. With no points this is exactly
/// one [`GangMachine::run_vcycles`] call. With points, the lockstep run
/// is sliced at each injection Vcycle: an [`FaultKind::Error`] parks just
/// the targeted lane (its siblings keep running — PR 5's lane-masking
/// semantics extended to injected faults), a stall delays the whole gang
/// (lockstep has one clock), and a panic unwinds the worker (the
/// caller's `catch_unwind` turns the whole gang into
/// [`JobOutcome::WorkerPanic`] outputs).
///
/// `lane_jobs` maps lanes to submitted job indexes: lane `l` runs job
/// `lane_jobs[l]`.
fn run_gang_with_faults(
    gang: &mut GangMachine,
    budget: u64,
    lane_jobs: &[usize],
    faults: &FaultPlan,
) -> Vec<Result<RunOutcome, MachineError>> {
    let lanes = lane_jobs.len();
    // Collect this gang's points as (vcycle, lane, kind), lockstep order.
    let mut points: Vec<(u64, usize, FaultKind)> = Vec::new();
    for (lane, &index) in lane_jobs.iter().enumerate() {
        for p in faults.for_job(index) {
            if p.vcycle < budget {
                points.push((p.vcycle, lane, p.kind));
            }
        }
    }
    if points.is_empty() {
        return gang.run_vcycles(budget);
    }
    points.sort_by_key(|&(vcycle, lane, _)| (vcycle, lane));

    let mut acc: Vec<Result<RunOutcome, MachineError>> =
        (0..lanes).map(|_| Ok(RunOutcome::default())).collect();
    // Stitch one slice's per-lane results into the accumulator. A lane
    // that erred in an earlier slice keeps its first error (the gang
    // re-reports recorded faults on every call).
    let merge = |acc: &mut Vec<Result<RunOutcome, MachineError>>,
                 gang: &mut GangMachine,
                 slice: Vec<Result<RunOutcome, MachineError>>|
     -> bool {
        let mut any_live = false;
        for (lane, res) in slice.into_iter().enumerate() {
            match (&mut acc[lane], res) {
                (Ok(a), Ok(s)) => {
                    a.vcycles_run += s.vcycles_run;
                    a.finished |= s.finished;
                    a.displays.extend(s.displays);
                    a.interrupted = s.interrupted;
                    if !(a.finished || a.interrupted.is_some()) {
                        any_live = true;
                    }
                }
                (slot @ Ok(_), Err(e)) => {
                    // First error on this lane: displays it accumulated in
                    // earlier slices go back to the lane's pending queue,
                    // like an unsliced faulting run.
                    let Ok(a) = slot else { unreachable!() };
                    gang.requeue_displays(lane, std::mem::take(&mut a.displays));
                    *slot = Err(e);
                }
                (Err(_), _) => {}
            }
        }
        any_live
    };

    let mut done = 0u64;
    for &(vcycle, lane, kind) in &points {
        let slice = vcycle - done;
        if slice > 0 {
            let res = gang.run_vcycles(slice);
            done = vcycle;
            if !merge(&mut acc, gang, res) {
                return acc;
            }
        }
        match kind {
            FaultKind::WorkerPanic => {
                panic!(
                    "injected worker panic: job {} at vcycle {vcycle}",
                    lane_jobs[lane]
                );
            }
            FaultKind::Stall(millis) => {
                std::thread::sleep(std::time::Duration::from_millis(millis));
            }
            FaultKind::Error => {
                gang.park_lane(
                    lane,
                    MachineError::Injected {
                        vcycle: gang.counters(lane).vcycles,
                    },
                );
            }
        }
    }
    if done < budget {
        let res = gang.run_vcycles(budget - done);
        merge(&mut acc, gang, res);
    }
    acc
}

/// A handle on a persistent work-stealing pool of `workers` threads,
/// executing [`SimJob`] batches. Clones share the pool; the last handle
/// to drop joins its workers. See the crate docs for the scheduling
/// discipline and the determinism argument.
#[derive(Debug, Clone)]
pub struct Fleet {
    pool: Arc<Pool>,
}

impl Fleet {
    /// A fleet of `workers` worker threads (clamped to at least 1). The
    /// threads are spawned the first time the fleet submits work to
    /// them, and park while no work is queued.
    pub fn new(workers: usize) -> Fleet {
        Fleet {
            pool: Arc::new(Pool::new(workers)),
        }
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// Runs every job in the batch and returns the outputs **in
    /// submission order** — `outputs[i]` belongs to `jobs[i]`, regardless
    /// of which worker executed it or when.
    ///
    /// Jobs are dealt round-robin into per-worker queues; a worker pops
    /// its own queue from the front (preserving submission locality) and,
    /// when dry, steals from the back of victims visited in a seeded
    /// pseudo-random order. A batch smaller than the pool simply leaves
    /// the surplus workers parked.
    pub fn run(&self, jobs: Vec<SimJob>) -> Vec<JobOutput> {
        self.run_with(jobs, &BatchPolicy::default())
    }

    /// [`Fleet::run`] under a [`BatchPolicy`]: cooperative cancellation,
    /// a batch deadline, fail-fast, and/or a deterministic [`FaultPlan`].
    /// With the default policy this is exactly [`Fleet::run`].
    pub fn run_with(&self, jobs: Vec<SimJob>, policy: &BatchPolicy) -> Vec<JobOutput> {
        self.run_ganged_with(jobs, 1, policy)
    }

    /// [`Fleet::run_with`], streaming: every [`JobOutput`] is handed to
    /// `sink` **as its job finishes**, in completion order, instead of
    /// being held until the batch barrier. `sink` runs on the calling
    /// thread, which receives each output from the workers over a
    /// channel. Outputs carry their [`JobOutput::index`], so a caller that
    /// wants submission order can reorder; a caller that wants latency
    /// (a frontier loop scoring children while their siblings still run)
    /// consumes them as they come. The results themselves are
    /// bit-identical to [`Fleet::run_with`] — streaming changes *when* an
    /// output is observable, never what it contains.
    pub fn run_stream(
        &self,
        jobs: Vec<SimJob>,
        policy: &BatchPolicy,
        sink: &(dyn Fn(JobOutput) + Sync),
    ) {
        self.run_ganged_stream(jobs, 1, policy, sink);
    }

    /// Like [`Fleet::run`], but batches compatible jobs into gangs of up
    /// to `lanes` lanes: fresh jobs sharing one program,
    /// identical engine knobs, and one Vcycle budget execute in lockstep
    /// on a [`GangMachine`] — every micro-op fetched and decoded once for
    /// the whole gang. Jobs that cannot gang (resumed machines, jobs with
    /// a per-job deadline, or a gang of one) run exactly as
    /// [`Fleet::run`] would run them.
    ///
    /// Outputs are bit-identical to the ungganged path and still arrive
    /// in submission order — ganging changes scheduling, never results
    /// (`tests/gang_equivalence.rs` holds this to full-regfile
    /// fingerprints).
    pub fn run_ganged(&self, jobs: Vec<SimJob>, lanes: usize) -> Vec<JobOutput> {
        self.run_ganged_with(jobs, lanes, &BatchPolicy::default())
    }

    /// [`Fleet::run_ganged`] under a [`BatchPolicy`] — see
    /// [`Fleet::run_with`]. An [`FaultKind::Error`] aimed at a ganged job
    /// parks just that lane; its lane-mates run to completion.
    pub fn run_ganged_with(
        &self,
        jobs: Vec<SimJob>,
        lanes: usize,
        policy: &BatchPolicy,
    ) -> Vec<JobOutput> {
        let mut slots: Vec<Option<JobOutput>> = (0..jobs.len()).map(|_| None).collect();
        self.for_each_output(jobs, lanes, policy, &mut |output| {
            let index = output.index;
            slots[index] = Some(output);
        });
        slots
            .into_iter()
            .map(|slot| slot.expect("every submitted job produces exactly one output"))
            .collect()
    }

    /// [`Fleet::run_ganged_with`], streaming — the lane-batched
    /// counterpart of [`Fleet::run_stream`]. A gang's outputs are emitted
    /// together when the gang finishes (lanes run in lockstep, so they
    /// finish together); solo jobs stream individually.
    pub fn run_ganged_stream(
        &self,
        jobs: Vec<SimJob>,
        lanes: usize,
        policy: &BatchPolicy,
        sink: &(dyn Fn(JobOutput) + Sync),
    ) {
        self.for_each_output(jobs, lanes, policy, &mut |output| sink(output));
    }

    /// Submits a batch and returns at once, without waiting for any of
    /// it. The batch is grouped into units exactly as
    /// [`Fleet::run_ganged_stream`] groups it, and its units join the
    /// pool's queues behind whatever is already there. `sink` receives
    /// every [`JobOutput`] (one per job, indexed by position in `jobs`)
    /// on the worker thread that finished its unit, the moment it
    /// finishes — so it must be cheap, it owns what it needs, and it must
    /// not wait on a batch of this fleet (its worker could end up waiting
    /// for itself). The sink is dropped once every unit has run.
    ///
    /// This is how a server keeps the pool busy without a batch barrier:
    /// it submits one unit of work whenever a worker frees up, and each
    /// result goes back to its client from the worker that produced it.
    pub fn submit_ganged(
        &self,
        jobs: Vec<SimJob>,
        lanes: usize,
        policy: &BatchPolicy,
        sink: impl Fn(JobOutput) + Send + Sync + 'static,
    ) {
        let ctx = Arc::new(BatchCtx::new(policy));
        let sink: Arc<dyn Fn(JobOutput) + Send + Sync> = Arc::new(sink);
        let units = group_units(jobs, lanes);
        self.pool.submit(units.into_iter().map(|unit| {
            let ctx = Arc::clone(&ctx);
            let sink = Arc::clone(&sink);
            Box::new(move || run_unit(unit, &ctx, &mut |output| sink(output))) as Task
        }));
    }

    /// Runs a batch to completion, handing `f` each output on the calling
    /// thread in completion order: exactly one per job. A one-worker
    /// fleet would run the units one at a time while the caller waits, so
    /// the caller runs them itself, in the order that worker would —
    /// no hand-off, and no second thread's allocator arena left holding
    /// the batch's memory.
    fn for_each_output(
        &self,
        jobs: Vec<SimJob>,
        lanes: usize,
        policy: &BatchPolicy,
        f: &mut dyn FnMut(JobOutput),
    ) {
        if self.workers() == 1 {
            let ctx = BatchCtx::new(policy);
            for unit in group_units(jobs, lanes) {
                run_unit(unit, &ctx, f);
            }
            return;
        }
        let n = jobs.len();
        let (tx, rx) = mpsc::channel();
        self.submit_ganged(jobs, lanes, policy, move |output| {
            // A caller that stopped listening (its sink panicked) no
            // longer needs the output.
            let _ = tx.send(output);
        });
        for output in rx.into_iter().take(n) {
            f(output);
        }
    }
}

/// Splits a batch into schedulable units. With `lanes > 1`, fresh
/// gangable jobs that share a gang key group into gangs of up to `lanes`
/// (scanning in submission order, so the grouping is deterministic);
/// every other job, and every gang of one, is a solo unit.
fn group_units(jobs: Vec<SimJob>, lanes: usize) -> Vec<Unit> {
    if lanes <= 1 {
        return jobs
            .into_iter()
            .enumerate()
            .map(|(index, job)| Unit::Single(index, job))
            .collect();
    }
    // A gang machine holds at most MAX_LANES lanes; wider requests simply
    // open another gang (never truncate a group against a
    // silently-clamped machine).
    let lanes = lanes.min(MAX_LANES);
    let mut units: Vec<Unit> = Vec::new();
    // Open (not yet full) gang per compatibility key, as an index into
    // `units`.
    let mut open: HashMap<GangKey, usize> = HashMap::new();
    for (index, job) in jobs.into_iter().enumerate() {
        if !job.gangable() {
            units.push(Unit::Single(index, job));
            continue;
        }
        match open.entry(job.gang_key()) {
            std::collections::hash_map::Entry::Occupied(entry) => {
                let slot = *entry.get();
                let Unit::Gang(group) = &mut units[slot] else {
                    unreachable!("open gangs index gang units")
                };
                group.push((index, job));
                if group.len() == lanes {
                    entry.remove();
                }
            }
            std::collections::hash_map::Entry::Vacant(entry) => {
                entry.insert(units.len());
                units.push(Unit::Gang(vec![(index, job)]));
            }
        }
    }
    // A gang of one gains nothing from the lane machinery; demote it to
    // the plain per-job path.
    for unit in &mut units {
        if let Unit::Gang(group) = unit {
            if group.len() == 1 {
                let (index, job) = group.pop().expect("len checked");
                *unit = Unit::Single(index, job);
            }
        }
    }
    units
}

/// Runs one unit (on a pool worker, or on the caller of a one-worker
/// fleet), handing each output to `sink` the moment the unit finishes.
/// The unit executes under `catch_unwind`: a panicking job (injected or
/// genuine) yields [`JobOutcome::WorkerPanic`] outputs for the unit's
/// unreported jobs and the worker moves on — the batch always emits
/// exactly one output per job. A failure trips the
/// batch's token when the policy is fail-fast.
fn run_unit(unit: Unit, ctx: &BatchCtx, sink: &mut dyn FnMut(JobOutput)) {
    // Capture the unit's job indexes before it is consumed, so a panic
    // can still be pinned to its jobs.
    let indexes = unit.job_indexes();
    let mut outs = Vec::new();
    let panicked = catch_silent_mut(|| unit.execute(ctx, &mut outs)).err();
    let mut failed = false;
    let mut produced = vec![false; indexes.len()];
    for output in outs {
        failed |= output.outcome.is_failure();
        if let Some(at) = indexes.iter().position(|&i| i == output.index) {
            produced[at] = true;
        }
        sink(output);
    }
    // A panic mid-unit: every job the unit did not get to report becomes
    // a structured WorkerPanic output.
    if let Some(message) = panicked {
        failed = true;
        for (&index, _) in indexes.iter().zip(&produced).filter(|(_, &done)| !done) {
            sink(JobOutput {
                index,
                outcome: JobOutcome::WorkerPanic,
                result: Err(MachineError::WorkerPanic {
                    message: message.clone(),
                }),
                machine: None,
            });
        }
    }
    if ctx.fail_fast && failed {
        if let Some(token) = &ctx.cancel {
            token.cancel();
        }
    }
}

/// Configuration for [`Fleet::explore`]: the shape of the scenario tree
/// and the stimulus to fuzz.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Fork width: children per frontier checkpoint per round (clamped to
    /// `1..=`[`MAX_LANES`]).
    pub lanes: usize,
    /// Exploration rounds (tree depth beyond the warm-up).
    pub rounds: usize,
    /// Vcycles each forked child runs before it is scored.
    pub vcycles_per_round: u64,
    /// Vcycles the root runs before the first checkpoint (past the
    /// validation Vcycle, so every fork resumes on the replay path).
    pub warmup_vcycles: u64,
    /// Most frontier checkpoints kept between rounds — the knob that
    /// keeps exploration memory flat regardless of tree depth.
    pub frontier_cap: usize,
    /// PRNG seed for the fuzzed stimulus; same seed, same tree.
    pub seed: u64,
    /// Registers to fuzz on each forked child, as `(core, reg, mask)`
    /// word triples: each child gets an independent random value, ANDed
    /// with `mask` (so out-of-width bits of a wide RTL register are never
    /// injected).
    pub stimulus: Vec<(CoreId, Reg, u16)>,
}

impl Default for ExploreConfig {
    fn default() -> ExploreConfig {
        ExploreConfig {
            lanes: 8,
            rounds: 16,
            vcycles_per_round: 25,
            warmup_vcycles: 2,
            frontier_cap: 4,
            seed: 0,
            stimulus: Vec::new(),
        }
    }
}

/// What a [`Fleet::explore`] run did and found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExploreReport {
    /// Forked child scenarios executed.
    pub scenarios: u64,
    /// Rounds actually run (short of `rounds` only when every child of a
    /// round finished or faulted, leaving nothing to fork).
    pub rounds_run: usize,
    /// Toggle-covered register bits over the whole grid at the end
    /// ([`CoverageMap::covered_bits`]).
    pub covered_bits: u64,
    /// Largest frontier held between rounds (never exceeds
    /// `frontier_cap`).
    pub frontier_peak: usize,
    /// `$display` lines produced across all children.
    pub displays: u64,
    /// Children that aborted on a failed assertion.
    pub asserts: u64,
    /// Children that aborted on any other [`MachineError`] (injected
    /// faults included).
    pub faults: u64,
    /// Children whose design reached `$finish`.
    pub finished: u64,
    /// Children lost to a worker panic: their whole gang unwound, so they
    /// were neither scored nor kept — the rest of the round's frontier
    /// stayed deterministic without them. Always 0 without a
    /// panic-injecting [`FaultPlan`].
    pub killed: u64,
    /// `Some` when the exploration stopped early on the batch policy's
    /// cancel token or deadline (checked between rounds, never inside
    /// one, so every completed round is exactly the round an uninterrupted
    /// run would have produced).
    pub interrupted: Option<Interrupt>,
}

impl Fleet {
    /// Coverage-guided scenario-tree exploration: repeatedly checkpoint
    /// frontier states, fork each into a gang of children with fuzzed
    /// per-lane stimulus, run the gangs across the worker pool, and keep
    /// the children that raise toggle coverage as the next frontier
    /// (padding with the round's earliest still-running children when too
    /// few raise it; see [`CoverageMap`]).
    ///
    /// Fully deterministic for a given `(program, config)`: stimulus is
    /// drawn serially in submission order before any gang runs, gang
    /// results are merged in submission order, and the simulator itself is
    /// deterministic — worker count and scheduling cannot change the tree.
    /// Memory stays flat in tree depth: live state is bounded by
    /// `frontier_cap` checkpoints plus one round of gangs.
    ///
    /// Children that fault (a failed assertion is *interesting*, not
    /// fatal) or finish are scored and counted but leave the frontier.
    ///
    /// # Errors
    ///
    /// Only the root warm-up can fail ([`Machine::run_vcycles`] on the
    /// unforked root); child faults are data, tallied in the report.
    pub fn explore(
        &self,
        program: &Arc<CompiledProgram>,
        cfg: &ExploreConfig,
    ) -> Result<ExploreReport, MachineError> {
        self.explore_with(program, cfg, &BatchPolicy::default())
    }

    /// [`Fleet::explore`] under a [`BatchPolicy`]. Cancellation and the
    /// deadline are honored *between* rounds only — inside a round the
    /// tree must stay a pure function of `(program, config)`, so every
    /// completed round is exactly what an uninterrupted run would have
    /// produced. [`FaultPlan`] points address children by their global
    /// submission ordinal (round by round, frontier order, lane order):
    /// an injected error parks that child (tallied in
    /// [`ExploreReport::faults`], like a real fault), and an injected
    /// panic loses the child's whole gang ([`ExploreReport::killed`])
    /// while the frontier deterministically continues from the surviving
    /// gangs.
    pub fn explore_with(
        &self,
        program: &Arc<CompiledProgram>,
        cfg: &ExploreConfig,
        policy: &BatchPolicy,
    ) -> Result<ExploreReport, MachineError> {
        let lanes = cfg.lanes.clamp(1, MAX_LANES);
        let cap = cfg.frontier_cap.max(1);
        let mut report = ExploreReport::default();
        let mut coverage = CoverageMap::for_program(program);

        let mut root = Machine::from_program(Arc::clone(program));
        if cfg.warmup_vcycles > 0 {
            root.run_vcycles(cfg.warmup_vcycles)?;
        }
        coverage.observe(&root);
        let mut frontier: Vec<Checkpoint> = vec![root.checkpoint()];
        report.frontier_peak = 1;
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        // Global child ordinal in submission order — the job index a
        // FaultPlan addresses.
        let mut next_child: usize = 0;
        // Owned by the round's tasks, which outlive no round but run on
        // the persistent pool.
        let faults = Arc::new(policy.faults.clone());

        for _ in 0..cfg.rounds {
            // The round boundary is the only interruption point; see the
            // method docs for why.
            let stop = if policy.cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
                Some(Interrupt::Cancelled)
            } else if policy
                .deadline
                .is_some_and(|d| std::time::Instant::now() >= d)
            {
                Some(Interrupt::Deadline)
            } else {
                None
            };
            if let Some(stop) = stop {
                report.interrupted = Some(stop);
                break;
            }

            // Fork the frontier and draw every lane's stimulus serially,
            // in frontier order, so the tree is independent of worker
            // scheduling.
            let mut gangs: Vec<GangMachine> = Vec::with_capacity(frontier.len());
            for cp in &frontier {
                let mut gang = cp.fork(lanes)?;
                for lane in 0..lanes {
                    for &(core, reg, mask) in &cfg.stimulus {
                        gang.poke_reg(lane, core, reg, (rng.next_u64() as u16) & mask);
                    }
                }
                gangs.push(gang);
            }
            let round_base = next_child;
            next_child += gangs.len() * lanes;

            // Run the round's gangs on the worker pool. Each gang is one
            // task, which sends the finished gang down a channel the
            // moment it completes; the merge below consumes them *as they
            // finish*, holding
            // early finishers in a reorder buffer so scoring still
            // happens in submission order (the tree stays a pure function
            // of `(program, config)`) while later gangs are still
            // running. A gang whose worker panics (injected faults only —
            // the simulator itself returns errors) is recorded as lost,
            // not resultless.
            let n = gangs.len();
            let vcycles = cfg.vcycles_per_round.max(1);
            enum GangSlot {
                Done(GangMachine, Vec<Result<RunOutcome, MachineError>>),
                Lost,
            }
            report.rounds_run += 1;
            let mut raisers: Vec<Checkpoint> = Vec::new();
            let mut pad: Vec<Checkpoint> = Vec::new();
            // Runs gang `i` of the round, containing an injected panic.
            let run_gang = move |i: usize, mut gang: GangMachine, faults: &FaultPlan| {
                if faults.is_empty() {
                    let results = gang.run_vcycles(vcycles);
                    return (i, GangSlot::Done(gang, results));
                }
                // Children of gang i are ordinals round_base + i*lanes + lane.
                let base = round_base + i * lanes;
                let lane_jobs: Vec<usize> = (0..lanes).map(|lane| base + lane).collect();
                let slot = catch_silent_mut(|| {
                    let results = run_gang_with_faults(&mut gang, vcycles, &lane_jobs, faults);
                    (gang, results)
                })
                .map(|(gang, results)| GangSlot::Done(gang, results))
                .unwrap_or(GangSlot::Lost);
                (i, slot)
            };
            // A one-worker fleet runs the round on the calling thread, in
            // order, as `for_each_output` does for batches.
            let finished: Box<dyn Iterator<Item = (usize, GangSlot)>> = if self.workers() == 1 {
                let faults = &faults;
                Box::new(
                    gangs
                        .into_iter()
                        .enumerate()
                        .map(move |(i, gang)| run_gang(i, gang, faults)),
                )
            } else {
                let (tx, rx) = mpsc::channel::<(usize, GangSlot)>();
                self.pool
                    .submit(gangs.into_iter().enumerate().map(|(i, gang)| {
                        let tx = tx.clone();
                        let faults = Arc::clone(&faults);
                        Box::new(move || {
                            let _ = tx.send(run_gang(i, gang, &faults));
                        }) as Task
                    }));
                // The tasks hold the clones; dropping the original lets
                // the receive loop end when the last task is done.
                drop(tx);
                Box::new(rx.into_iter())
            };

            // Merge in submission order as gangs finish: score every
            // child against the shared map, keep coverage-raisers for the
            // next frontier, pad with the round's earliest still-running
            // children.
            let mut pending: std::collections::BTreeMap<usize, GangSlot> =
                std::collections::BTreeMap::new();
            let mut next_gang = 0usize;
            for (i, slot) in finished {
                pending.insert(i, slot);
                while let Some(slot) = pending.remove(&next_gang) {
                    next_gang += 1;
                    let (gang, results) = match slot {
                        GangSlot::Done(gang, results) => (gang, results),
                        GangSlot::Lost => {
                            report.killed += lanes as u64;
                            continue;
                        }
                    };
                    for (machine, result) in gang.into_machines().into_iter().zip(results) {
                        report.scenarios += 1;
                        let newly = coverage.observe(&machine);
                        let running = match &result {
                            Ok(outcome) => {
                                coverage.record_events(outcome.displays.len() as u64, 0);
                                if outcome.finished {
                                    report.finished += 1;
                                }
                                !outcome.finished
                            }
                            Err(MachineError::AssertFailed { .. }) => {
                                coverage.record_events(0, 1);
                                report.asserts += 1;
                                false
                            }
                            Err(_) => {
                                report.faults += 1;
                                false
                            }
                        };
                        if !running {
                            continue;
                        }
                        if newly > 0 && raisers.len() < cap {
                            raisers.push(machine.checkpoint());
                        } else if pad.len() < cap {
                            pad.push(machine.checkpoint());
                        }
                    }
                }
            }
            assert_eq!(next_gang, n, "every gang produces a result");
            let mut next = raisers;
            for cp in pad {
                if next.len() >= cap {
                    break;
                }
                next.push(cp);
            }
            if next.is_empty() {
                // Every child finished or faulted: the tree is exhausted.
                break;
            }
            report.frontier_peak = report.frontier_peak.max(next.len());
            frontier = next;
        }
        report.covered_bits = coverage.covered_bits();
        report.displays = coverage.displays;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manticore_isa::{AluOp, Binary, CoreImage, Instruction, MachineConfig};
    use std::sync::Mutex;

    /// A 1×1 counter program: `r1 += r2` once per Vcycle.
    fn counter_program() -> Arc<CompiledProgram> {
        let binary = Binary {
            grid_width: 1,
            grid_height: 1,
            vcycle_len: 4,
            cores: vec![CoreImage {
                core: CoreId::new(0, 0),
                body: vec![Instruction::Alu {
                    op: AluOp::Add,
                    rd: Reg(1),
                    rs1: Reg(1),
                    rs2: Reg(2),
                }],
                epilogue_len: 0,
                custom_functions: vec![],
                init_regs: vec![(Reg(1), 0), (Reg(2), 1)],
                init_scratch: vec![],
            }],
            exceptions: vec![],
            init_dram: vec![],
        };
        // Short pipeline so the write at position 0 commits inside the
        // 4-cycle Vcycle (the default 14-stage latency would make the
        // next Vcycle's read a hazard).
        let config = MachineConfig {
            hazard_latency: 2,
            ..MachineConfig::with_grid(1, 1)
        };
        CompiledProgram::compile_shared(config, &binary).unwrap()
    }

    #[test]
    fn outputs_arrive_in_submission_order_for_any_worker_count() {
        let program = counter_program();
        for workers in [1, 2, 3, 8] {
            let fleet = Fleet::new(workers);
            // Distinct input vectors: job i counts in steps of i+1.
            let jobs: Vec<SimJob> = (0..13)
                .map(|i| SimJob::new(&program, 10).poke(CoreId::new(0, 0), Reg(2), (i + 1) as u16))
                .collect();
            let outputs = fleet.run(jobs);
            assert_eq!(outputs.len(), 13);
            for (i, out) in outputs.iter().enumerate() {
                assert_eq!(out.index, i);
                let run = out.result.as_ref().unwrap();
                assert_eq!(run.vcycles_run, 10);
                assert_eq!(
                    out.machine().read_reg(CoreId::new(0, 0), Reg(1)),
                    (10 * (i + 1)) as u16,
                    "job {i} with {workers} workers"
                );
            }
        }
    }

    #[test]
    fn resume_continues_where_the_batch_left_off() {
        let program = counter_program();
        let fleet = Fleet::new(2);
        let first = fleet.run(vec![SimJob::new(&program, 3)]);
        let machine = first.into_iter().next().unwrap().into_machine();
        assert_eq!(machine.read_reg(CoreId::new(0, 0), Reg(1)), 3);
        let second = fleet.run(vec![SimJob::resume(machine, 4)]);
        assert_eq!(
            second[0].machine().read_reg(CoreId::new(0, 0), Reg(1)),
            7,
            "resumed run continues the same state"
        );
    }

    #[test]
    fn empty_batch_is_fine() {
        assert!(Fleet::new(4).run(Vec::new()).is_empty());
        assert!(Fleet::new(4).run_ganged(Vec::new(), 8).is_empty());
    }

    #[test]
    fn oversized_gang_requests_split_instead_of_truncating() {
        // More compatible jobs than a gang machine can hold: the width
        // clamps to MAX_LANES and the surplus opens further gangs — every
        // job still produces its own correct output.
        let program = counter_program();
        let core = CoreId::new(0, 0);
        let n = manticore_machine::MAX_LANES + 7;
        let jobs: Vec<SimJob> = (0..n)
            .map(|i| SimJob::new(&program, 5).poke(core, Reg(2), (i + 1) as u16))
            .collect();
        let outputs = Fleet::new(2).run_ganged(jobs, n);
        assert_eq!(outputs.len(), n);
        for (i, out) in outputs.iter().enumerate() {
            assert_eq!(out.index, i);
            assert_eq!(out.machine().read_reg(core, Reg(1)), (5 * (i + 1)) as u16);
        }
    }

    #[test]
    fn ganged_run_matches_solo_run_for_mixed_job_sets() {
        let program = counter_program();
        let core = CoreId::new(0, 0);
        // A deliberately lumpy set: three gangable groups (two budgets x
        // two engines) plus non-gangable jobs carrying a far-future
        // per-job deadline, interleaved.
        let far = std::time::Instant::now() + std::time::Duration::from_secs(3600);
        let make_jobs = || -> Vec<SimJob> {
            (0..11)
                .map(|i| {
                    let vcycles = if i % 2 == 0 { 10 } else { 7 };
                    let mut job = SimJob::new(&program, vcycles).poke(core, Reg(2), (i + 1) as u16);
                    if i % 5 == 3 {
                        job = job.deadline(far);
                    }
                    if i % 3 == 0 {
                        job = job.replay_engine(ReplayEngine::Tape);
                    }
                    job
                })
                .collect()
        };
        let reference = Fleet::new(1).run(make_jobs());
        for lanes in [2, 4, 8] {
            let ganged = Fleet::new(2).run_ganged(make_jobs(), lanes);
            assert_eq!(ganged.len(), reference.len());
            for (out, re) in ganged.iter().zip(&reference) {
                assert_eq!(out.index, re.index, "lanes {lanes}: submission order");
                assert_eq!(
                    out.machine().read_reg(core, Reg(1)),
                    re.machine().read_reg(core, Reg(1)),
                    "lanes {lanes}: job {} diverged from the solo path",
                    out.index
                );
                assert_eq!(
                    out.machine().counters(),
                    re.machine().counters(),
                    "lanes {lanes}: job {} counters diverged",
                    out.index
                );
            }
        }
    }

    #[test]
    fn explore_is_deterministic_across_worker_counts() {
        let program = counter_program();
        let cfg = ExploreConfig {
            lanes: 4,
            rounds: 3,
            vcycles_per_round: 5,
            warmup_vcycles: 2,
            frontier_cap: 2,
            seed: 0xdead,
            stimulus: vec![(CoreId::new(0, 0), Reg(2), 0x00ff)],
        };
        let reference = Fleet::new(1).explore(&program, &cfg).unwrap();
        // The counter design never finishes or faults, so every round
        // forks a full frontier: 1 gang in round 1, `frontier_cap` after.
        assert_eq!(reference.rounds_run, 3);
        assert_eq!(
            reference.scenarios,
            (cfg.lanes + (cfg.rounds - 1) * cfg.frontier_cap * cfg.lanes) as u64
        );
        assert_eq!(reference.asserts + reference.faults + reference.finished, 0);
        assert!(reference.frontier_peak <= cfg.frontier_cap);
        assert!(reference.covered_bits > 0, "fuzzing r2 must toggle bits");
        for workers in [2, 4] {
            assert_eq!(
                Fleet::new(workers).explore(&program, &cfg).unwrap(),
                reference,
                "{workers} workers: exploration tree diverged"
            );
        }
        // A different seed is still a well-formed tree of the same shape
        // (the tiny counter design may coincidentally cover the same bit
        // set, so only the shape is asserted).
        let reseeded = Fleet::new(2)
            .explore(
                &program,
                &ExploreConfig {
                    seed: 1,
                    ..cfg.clone()
                },
            )
            .unwrap();
        assert_eq!(reseeded.scenarios, reference.scenarios);
        assert_eq!(reseeded.rounds_run, reference.rounds_run);
    }

    #[test]
    fn one_program_many_runs_share_the_artifact() {
        let program = counter_program();
        let outputs =
            Fleet::new(4).run((0..8).map(|_| SimJob::new(&program, 5)).collect::<Vec<_>>());
        for out in &outputs {
            // Every run executes the same shared artifact...
            assert!(Arc::ptr_eq(out.machine().program(), &program));
            // ...and none of them perturbs another.
            assert_eq!(out.machine().read_reg(CoreId::new(0, 0), Reg(1)), 5);
        }
        // 8 runs + the original handle + the machines' handles all alias
        // one compilation.
        assert!(Arc::strong_count(&program) >= 9);
    }

    #[test]
    fn worker_count_clamps_to_at_least_one() {
        assert_eq!(Fleet::new(0).workers(), 1);
        // ...and a zero-worker request still executes a batch.
        let program = counter_program();
        let outputs = Fleet::new(0).run(vec![SimJob::new(&program, 4)]);
        assert_eq!(outputs.len(), 1);
        assert_eq!(outputs[0].outcome, JobOutcome::BudgetExhausted);
        assert_eq!(outputs[0].machine().read_reg(CoreId::new(0, 0), Reg(1)), 4);
    }

    #[test]
    fn resumed_faulted_machine_reports_faulted_without_rerunning() {
        let program = counter_program();
        let fleet = Fleet::new(2);
        let mut machine = fleet
            .run(vec![SimJob::new(&program, 3)])
            .into_iter()
            .next()
            .unwrap()
            .into_machine();
        machine.inject_fault(MachineError::Injected { vcycle: 3 });
        let vcycles_before = machine.counters().vcycles;
        let out = fleet
            .run(vec![SimJob::resume(machine, 10)])
            .into_iter()
            .next()
            .unwrap();
        assert_eq!(out.outcome, JobOutcome::Faulted);
        assert!(matches!(
            out.result,
            Err(MachineError::Injected { vcycle: 3 })
        ));
        assert_eq!(
            out.machine().counters().vcycles,
            vcycles_before,
            "a parked machine must not execute further Vcycles"
        );
    }

    #[test]
    fn injected_panic_is_contained_to_its_job() {
        let program = counter_program();
        let core = CoreId::new(0, 0);
        let policy = BatchPolicy {
            faults: FaultPlan::none().panic_at(2, 3),
            ..BatchPolicy::default()
        };
        for workers in [1, 4] {
            let jobs: Vec<SimJob> = (0..6)
                .map(|i| SimJob::new(&program, 8).poke(core, Reg(2), (i + 1) as u16))
                .collect();
            let outputs = Fleet::new(workers).run_with(jobs, &policy);
            assert_eq!(outputs.len(), 6);
            for (i, out) in outputs.iter().enumerate() {
                assert_eq!(out.index, i);
                if i == 2 {
                    assert_eq!(out.outcome, JobOutcome::WorkerPanic);
                    assert!(out.machine.is_none());
                    assert!(matches!(out.result, Err(MachineError::WorkerPanic { .. })));
                } else {
                    assert_eq!(out.outcome, JobOutcome::BudgetExhausted);
                    assert_eq!(
                        out.machine().read_reg(core, Reg(1)),
                        (8 * (i + 1)) as u16,
                        "job {i}: survivors must be identical to a clean run"
                    );
                }
            }
        }
    }

    #[test]
    fn pre_cancelled_batch_stops_every_job_before_its_first_vcycle() {
        let program = counter_program();
        let token = CancelToken::new();
        token.cancel();
        let policy = BatchPolicy {
            cancel: Some(token),
            ..BatchPolicy::default()
        };
        let jobs: Vec<SimJob> = (0..4).map(|_| SimJob::new(&program, 50)).collect();
        for outputs in [
            Fleet::new(2).run_with((0..4).map(|_| SimJob::new(&program, 50)).collect(), &policy),
            Fleet::new(2).run_ganged_with(jobs, 4, &policy),
        ] {
            for out in &outputs {
                assert_eq!(out.outcome, JobOutcome::Cancelled);
                assert_eq!(out.result.as_ref().unwrap().vcycles_run, 0);
            }
        }
    }

    #[test]
    fn expired_deadline_reports_deadline_deterministically() {
        let program = counter_program();
        let past = std::time::Instant::now() - std::time::Duration::from_millis(1);
        // Per-job deadline...
        let out = Fleet::new(1)
            .run(vec![SimJob::new(&program, 50).deadline(past)])
            .pop()
            .unwrap();
        assert_eq!(out.outcome, JobOutcome::Deadline);
        assert_eq!(out.result.as_ref().unwrap().vcycles_run, 0);
        // ...and batch deadline, which also stops gangs.
        let policy = BatchPolicy {
            deadline: Some(past),
            ..BatchPolicy::default()
        };
        let outputs = Fleet::new(2).run_ganged_with(
            (0..4).map(|_| SimJob::new(&program, 50)).collect(),
            4,
            &policy,
        );
        for out in &outputs {
            assert_eq!(out.outcome, JobOutcome::Deadline);
            assert_eq!(out.result.as_ref().unwrap().vcycles_run, 0);
        }
    }

    #[test]
    fn fail_fast_cancels_the_survivors_without_tripping_the_caller_token() {
        let program = counter_program();
        let caller = CancelToken::new();
        let policy = BatchPolicy {
            cancel: Some(caller.clone()),
            fail_fast: true,
            // Job 0 faults immediately; with one worker the remaining
            // jobs observe the cancellation before they start.
            faults: FaultPlan::none().error_at(0, 0),
            ..BatchPolicy::default()
        };
        let jobs: Vec<SimJob> = (0..5).map(|_| SimJob::new(&program, 1_000)).collect();
        let outputs = Fleet::new(1).run_with(jobs, &policy);
        assert_eq!(outputs[0].outcome, JobOutcome::Faulted);
        for out in &outputs[1..] {
            assert_eq!(out.outcome, JobOutcome::Cancelled);
            assert_eq!(out.result.as_ref().unwrap().vcycles_run, 0);
        }
        assert!(
            !caller.is_cancelled(),
            "fail-fast must trip a child token, never the caller's"
        );
    }

    #[test]
    fn per_job_cancel_stops_only_that_job() {
        let program = counter_program();
        let core = CoreId::new(0, 0);
        let token = CancelToken::new();
        token.cancel();
        let jobs: Vec<SimJob> = (0..4)
            .map(|i| {
                let job = SimJob::new(&program, 6).poke(core, Reg(2), (i + 1) as u16);
                if i == 1 {
                    job.cancel_token(token.clone())
                } else {
                    job
                }
            })
            .collect();
        let outputs = Fleet::new(2).run(jobs);
        for (i, out) in outputs.iter().enumerate() {
            if i == 1 {
                assert_eq!(out.outcome, JobOutcome::Cancelled);
                assert_eq!(out.result.as_ref().unwrap().vcycles_run, 0);
            } else {
                assert_eq!(out.outcome, JobOutcome::BudgetExhausted, "job {i}");
                assert_eq!(out.machine().read_reg(core, Reg(1)), (6 * (i + 1)) as u16);
            }
        }
    }

    #[test]
    fn gangs_never_cross_cancellation_domains() {
        // Jobs 0–1 share a tripped token; jobs 2–3 share a live one. If
        // grouping ignored token identity, all four would join one gang
        // whose single control plane would cancel the live pair too.
        let program = counter_program();
        let core = CoreId::new(0, 0);
        let dead = CancelToken::new();
        dead.cancel();
        let live = CancelToken::new();
        let jobs: Vec<SimJob> = (0..4)
            .map(|i| {
                let token = if i < 2 { &dead } else { &live };
                SimJob::new(&program, 5)
                    .poke(core, Reg(2), (i + 1) as u16)
                    .cancel_token(token.clone())
            })
            .collect();
        let outputs = Fleet::new(2).run_ganged(jobs, 4);
        for (i, out) in outputs.iter().enumerate() {
            if i < 2 {
                assert_eq!(out.outcome, JobOutcome::Cancelled, "job {i}");
                assert_eq!(out.result.as_ref().unwrap().vcycles_run, 0);
            } else {
                assert_eq!(out.outcome, JobOutcome::BudgetExhausted, "job {i}");
                assert_eq!(out.machine().read_reg(core, Reg(1)), (5 * (i + 1)) as u16);
            }
        }
    }

    #[test]
    fn streaming_delivers_every_output_with_results_identical_to_run() {
        let program = counter_program();
        let core = CoreId::new(0, 0);
        let make_jobs = || -> Vec<SimJob> {
            (0..9)
                .map(|i| SimJob::new(&program, 7).poke(core, Reg(2), (i + 1) as u16))
                .collect()
        };
        let reference = Fleet::new(1).run(make_jobs());
        for workers in [1, 3] {
            let streamed: Mutex<Vec<JobOutput>> = Mutex::new(Vec::new());
            Fleet::new(workers).run_stream(make_jobs(), &BatchPolicy::default(), &|out| {
                streamed.lock().unwrap().push(out)
            });
            let mut streamed = streamed.into_inner().unwrap();
            assert_eq!(streamed.len(), reference.len());
            // Completion order may differ from submission order; the
            // index on each output recovers it.
            streamed.sort_by_key(|out| out.index);
            for (out, re) in streamed.iter().zip(&reference) {
                assert_eq!(out.index, re.index);
                assert_eq!(
                    out.machine().read_reg(core, Reg(1)),
                    re.machine().read_reg(core, Reg(1)),
                    "{workers} workers: streamed job {} diverged",
                    out.index
                );
            }
        }
        // The ganged streamer delivers the same set too.
        let streamed: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        Fleet::new(2).run_ganged_stream(make_jobs(), 4, &BatchPolicy::default(), &|out| {
            streamed.lock().unwrap().push(out.index)
        });
        let mut indexes = streamed.into_inner().unwrap();
        indexes.sort_unstable();
        assert_eq!(indexes, (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn streaming_outputs_arrive_before_later_jobs_run() {
        // One worker executes jobs in submission order; the sink sees job
        // 0's output before job 1 has run at all — the opposite of the
        // old batch barrier, which held everything to the end.
        let program = counter_program();
        let seen = Mutex::new(Vec::new());
        Fleet::new(1).run_stream(
            (0..3).map(|_| SimJob::new(&program, 4)).collect(),
            &BatchPolicy::default(),
            &|out| seen.lock().unwrap().push(out.index),
        );
        assert_eq!(seen.into_inner().unwrap(), vec![0, 1, 2]);
    }

    /// Submits a probe task that reports the thread it ran on.
    fn probe(fleet: &Fleet, tx: &mpsc::Sender<std::thread::ThreadId>) {
        let tx = tx.clone();
        fleet.pool.submit([Box::new(move || {
            let _ = tx.send(std::thread::current().id());
        }) as Task]);
    }

    #[test]
    fn two_hundred_batches_run_on_the_same_two_worker_threads() {
        let program = counter_program();
        let fleet = Fleet::new(2);
        assert!(fleet.pool.thread_ids().is_empty(), "spawned on first use");
        // Each batch also carries a probe that reports the thread it ran
        // on; a pool that spawned per batch would report new ids.
        let (tx, rx) = mpsc::channel();
        for batch in 0..200u64 {
            probe(&fleet, &tx);
            let jobs: Vec<SimJob> = (0..3).map(|_| SimJob::new(&program, 2)).collect();
            let outputs = match batch % 3 {
                0 => fleet.run(jobs),
                1 => fleet.run_ganged(jobs, 2),
                _ => {
                    let seen = Mutex::new(Vec::new());
                    fleet.run_stream(jobs, &BatchPolicy::default(), &|out| {
                        seen.lock().unwrap().push(out)
                    });
                    seen.into_inner().unwrap()
                }
            };
            assert_eq!(outputs.len(), 3, "batch {batch}");
        }
        drop(tx);
        let workers = fleet.pool.thread_ids();
        assert_eq!(workers.len(), 2);
        let ran_on: std::collections::HashSet<_> = rx.into_iter().collect();
        assert!(!ran_on.is_empty() && ran_on.len() <= 2);
        assert!(ran_on.iter().all(|id| workers.contains(id)));
    }

    #[test]
    fn clones_share_a_pool_and_separate_fleets_do_not() {
        let fleet = Fleet::new(2);
        assert!(Arc::ptr_eq(&fleet.pool, &fleet.clone().pool));
        let other = Fleet::new(2);
        assert!(!Arc::ptr_eq(&fleet.pool, &other.pool));
        assert_eq!(other.run(vec![SimJob::new(&counter_program(), 2)]).len(), 1);
        let (mine, theirs) = (fleet.pool.thread_ids(), other.pool.thread_ids());
        assert!(
            mine.is_empty(),
            "a fleet that never submitted has no thread"
        );
        assert_eq!(theirs.len(), 2);
    }

    #[test]
    fn dropping_the_last_handle_joins_the_workers() {
        let program = counter_program();
        let fleet = Fleet::new(2);
        let alive = fleet.pool.liveness();
        let clone = fleet.clone();
        drop(fleet);
        // A surviving clone keeps the pool serving.
        assert_eq!(clone.run(vec![SimJob::new(&program, 3)]).len(), 1);
        assert!(alive.upgrade().is_some());
        // Work submitted without waiting still runs: the last drop drains
        // the queues before it joins.
        let (tx, rx) = mpsc::channel();
        clone.submit_ganged(
            vec![SimJob::new(&program, 3)],
            1,
            &BatchPolicy::default(),
            move |out| {
                let _ = tx.send(out.index);
            },
        );
        // The last drop returns only after every worker has exited: no
        // worker holds the shared state any more.
        drop(clone);
        assert_eq!(alive.strong_count(), 0);
        assert_eq!(rx.try_recv(), Ok(0), "the queued unit ran before the join");
    }

    #[test]
    fn injected_gang_fault_parks_one_lane_and_its_siblings_survive() {
        let program = counter_program();
        let core = CoreId::new(0, 0);
        let policy = BatchPolicy {
            faults: FaultPlan::none().error_at(1, 4),
            ..BatchPolicy::default()
        };
        let jobs: Vec<SimJob> = (0..4)
            .map(|i| SimJob::new(&program, 10).poke(core, Reg(2), (i + 1) as u16))
            .collect();
        let outputs = Fleet::new(2).run_ganged_with(jobs, 4, &policy);
        for (i, out) in outputs.iter().enumerate() {
            if i == 1 {
                assert_eq!(out.outcome, JobOutcome::Faulted);
                assert!(matches!(
                    out.result,
                    Err(MachineError::Injected { vcycle: 4 })
                ));
                // The lane froze at the injection point.
                assert_eq!(out.machine().read_reg(core, Reg(1)), (4 * (i + 1)) as u16);
            } else {
                assert_eq!(out.outcome, JobOutcome::BudgetExhausted);
                assert_eq!(
                    out.machine().read_reg(core, Reg(1)),
                    (10 * (i + 1)) as u16,
                    "lane {i} must run to its full budget"
                );
            }
        }
    }
}
