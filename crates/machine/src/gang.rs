//! Gang execution: lane-batched lockstep replay of K scenarios per
//! micro-op fetch.
//!
//! Manticore's compute domain has no data-dependent control flow: every
//! run of one compiled program executes the exact same instruction at the
//! exact same Vcycle position — only the *data* differs between runs. The
//! fleet engine exploits that at job granularity (K scenarios share one
//! frozen [`CompiledProgram`]), but each scenario still pays a full
//! micro-op dispatch loop of its own: fetch the op, match on its kind,
//! branch on the ALU function — K times over for K scenarios.
//!
//! A [`GangMachine`] collapses that cost. It runs K independent scenarios
//! (*lanes*) of one shared program in lockstep, with the hot mutable state
//! laid out **lane-major**: one grid-wide `Vec<u32>` register file where
//! the word for `(core, reg, lane)` lives at
//! `(core * regfile_size + reg) * lanes + lane` — all K copies of a
//! register are adjacent (`[lane0_r0, lane1_r0, .., lane0_r1, ..]`). Each
//! micro-op of the fused stream ([`crate::uops`]) is then fetched and
//! decoded **once** — including the ALU-function dispatch, hoisted out of
//! the lane loop so the innermost loop is branch-free for the common ops —
//! and applied across all K lanes over a contiguous slab. Dispatch cost
//! per scenario drops by ~K while the data cost stays what it was.
//!
//! **One layout, one kernel.** The constructors boot one plain solo
//! [`Machine`] per lane and transpose the register files once into the
//! lane-major layout (single sequential passes). The machines stay
//! around as *shells*: they keep owning each lane's NoC, cache, counters,
//! host events, and scratchpad lanes (scratch accesses are data-dependent
//! per-lane gathers a lane stride cannot batch, so transposing
//! mostly-cold scratch would only burn the short-run budgets gangs
//! accelerate), so the solo fallback and unbundling the gang at the end
//! allocate nothing. The ganged kernel is the direct-commit micro-op
//! loop, and it runs exactly when a solo run would replay the Vcycle
//! ([`replays_next_vcycle`]; replay arms only strict runs). Every other
//! Vcycle (the validation Vcycle of an unproven program, disabled replay,
//! permissive hazards, a strict program with a static cross-Vcycle
//! hazard, strictness re-armed mid-run) steps each running lane on the
//! solo engine ([`Machine::step_vcycle`], the one reference semantics):
//! gather the lane's register footprint and core states into its shell,
//! step it, scatter them back. The first lane to validate proves the
//! program's schedule ([`CompiledProgram::schedule_proven`]) for its
//! siblings and for every later gang.
//!
//! What is shared and what is per-lane:
//!
//! - **shared**: the program (bodies, micro-op streams, pre-resolved
//!   epilogue writes), the hazard/replay knobs, and the lockstep clock.
//!   Message delivery follows the shared frozen epilogue writes, so lanes
//!   can never diverge in *when* or *where* a message lands — only its
//!   value differs.
//! - **per-lane**: register/scratchpad values, pipeline rings and
//!   predicates ([`CoreState`]), the privileged core's cache and DRAM,
//!   performance counters, host events, and the error/finish status.
//!
//! **Lane masking.** The only data-dependent outcomes are the privileged
//! core's `Expect`s (assertion failures, `$display`, `$finish`) and cache
//! stalls. A lane whose run faults is *parked*: its [`MachineError`] is
//! recorded at its Vcycle, its state and counters freeze exactly where a
//! solo run would have aborted, and the surviving lanes keep executing.
//! `$finish` parks a lane the same way, successfully.
//!
//! **Bit-identity.** The equivalence suite (`tests/gang_equivalence.rs`)
//! pins the ganged path to K solo runs bit for bit: registers, counters,
//! displays, and errors — across lane counts, replay on and off, and
//! hazard strictness.

use std::sync::Arc;

use manticore_isa::{AluOp, CoreId, Reg};

use crate::checkpoint::Checkpoint;
use crate::core::CoreState;
use crate::exec::service_exception;
use crate::grid::{
    replay_armed, replays_next_vcycle, HostEvent, Interrupt, Machine, MachineError, PerfCounters,
    RunOutcome,
};
use crate::program::CompiledProgram;
use crate::uops::{MicroOp, UOp};

/// What a lane is currently doing.
#[derive(Debug, Clone)]
enum LaneStatus {
    /// Executing in lockstep with the other running lanes.
    Running,
    /// `$finish` fired; the lane's final state is readable.
    Finished,
    /// The run aborted with this error; the lane's state and counters are
    /// frozen exactly where a solo run would have stopped.
    Faulted(MachineError),
}

/// The most lanes one gang can hold. Past this width the lane-major
/// working set stops paying for itself (and the fleet's `run_ganged`
/// simply opens another gang), so wider requests clamp here.
pub const MAX_LANES: usize = 64;

/// K independent runs of one shared [`CompiledProgram`], executed in
/// lockstep. See the module docs for the layout, the solo fallback, and
/// the bit-identity contract.
#[derive(Debug)]
pub struct GangMachine {
    program: Arc<CompiledProgram>,
    lanes: usize,
    /// Lane-major SoA register file: `(core * regfile_size + reg) * lanes
    /// + lane`. Low 16 bits value, bit 16 the carry bit, as in
    /// [`Machine`].
    regs: Vec<u32>,
    /// Per-core per-lane run state (pipeline ring, predicate, epilogue
    /// slots): `core * lanes + lane`.
    cores: Vec<CoreState>,
    /// One solo machine shell per lane: NoC, cache, counters, compute
    /// time, host events, and the **scratchpad** (the ganged loop updates
    /// them all in place — the scratchpad stays per-lane-contiguous
    /// because its accesses are data-dependent per-lane gathers that a
    /// lane stride cannot batch, and transposing megabytes of mostly-cold
    /// scratch would dominate short gang runs). The shells' `regs` arrays
    /// hold stale copies that double as allocation-free staging for the
    /// solo fallback and for [`GangMachine::into_machines`]; their `cores`
    /// vectors are empty (the states live lane-major above).
    shells: Vec<Machine>,
    lane_status: Vec<LaneStatus>,
    strict_hazards: bool,
    replay_enabled: bool,
    tape_invalidated: bool,
    /// Cooperative cancellation, polled between lockstep Vcycles —
    /// [`Machine::set_cancel_token`] for the whole gang.
    cancel: Option<manticore_util::CancelToken>,
    /// Wall-clock deadline, polled between lockstep Vcycles.
    deadline: Option<std::time::Instant>,
    // ---- reusable buffers: nothing below allocates per Vcycle ----
    /// Lanes running in the current ganged Vcycle; shrinks when a lane
    /// faults mid-Vcycle.
    vc_active: Vec<u32>,
    /// This Vcycle's send values, lane-major: `send_idx * lanes + lane`.
    send_vals: Vec<u16>,
}

/// Runs `$body` once per running lane. The common case — no lane parked —
/// iterates the dense `0..lanes` range (vectorizable, no index
/// indirection); the masked case walks the active-lane list.
macro_rules! for_lanes {
    ($all:expr, $vc:expr, $lanes:expr, $l:ident, $body:block) => {
        if $all {
            for $l in 0..$lanes {
                $body
            }
        } else {
            for &__li in $vc.iter() {
                let $l = __li as usize;
                $body
            }
        }
    };
}

impl GangMachine {
    /// Boots `lanes` fresh runs of an already-frozen program (clamped to
    /// `1..=`[`MAX_LANES`]). Like [`Machine::from_program`] this is
    /// infallible allocation-only work: every lane starts from the
    /// program's initial register/scratchpad/DRAM images.
    pub fn from_program(program: Arc<CompiledProgram>, lanes: usize) -> GangMachine {
        let lanes = lanes.clamp(1, MAX_LANES);
        let machines = (0..lanes)
            .map(|_| Machine::from_program(Arc::clone(&program)))
            .collect();
        GangMachine::from_shells(
            program,
            machines,
            LaneStatus::Running,
            Machine::DEFAULT_STRICT_HAZARDS,
            Machine::DEFAULT_REPLAY,
            false,
        )
    }

    /// Explodes a [`Checkpoint`] into a `lanes`-wide gang of initially
    /// identical children — the scenario-tree fork ([`Checkpoint::fork`]
    /// delegates here). Every lane resumes from the snapshot's exact state
    /// with the snapshot's engine knobs; a checkpoint taken from a faulted
    /// lane yields lanes already parked with that same error, and one from
    /// a finished run yields finished lanes.
    ///
    /// # Errors
    ///
    /// [`MachineError::ForkWidth`] when `lanes` is zero or exceeds
    /// [`MAX_LANES`] — a fork is an explicit tree edge, so unlike
    /// [`GangMachine::from_program`] nothing is clamped.
    pub fn from_checkpoint(cp: &Checkpoint, lanes: usize) -> Result<GangMachine, MachineError> {
        if lanes == 0 || lanes > MAX_LANES {
            return Err(MachineError::ForkWidth { requested: lanes });
        }
        let machines = (0..lanes).map(|_| cp.boot()).collect();
        let status = match cp.fault() {
            Some(e) => LaneStatus::Faulted(e.clone()),
            None if cp.finish_requested => LaneStatus::Finished,
            None => LaneStatus::Running,
        };
        Ok(GangMachine::from_shells(
            Arc::clone(&cp.program),
            machines,
            status,
            cp.strict_hazards,
            cp.replay_enabled,
            cp.tape_invalidated,
        ))
    }

    /// Transposes booted solo machines' register files and core states
    /// into the lane-major layout — single sequential passes, paid once
    /// per gang. The machines stay behind as shells, which keep owning
    /// the scratchpads (deliberately never transposed; see the module
    /// docs and [`GangMachine::shells`]).
    fn from_shells(
        program: Arc<CompiledProgram>,
        mut shells: Vec<Machine>,
        status: LaneStatus,
        strict_hazards: bool,
        replay_enabled: bool,
        tape_invalidated: bool,
    ) -> GangMachine {
        let lanes = shells.len();
        let n = program.cores.len();
        let rf = program.config.regfile_size;
        let mut regs = Vec::with_capacity(n * rf * lanes);
        for i in 0..n * rf {
            for m in &shells {
                regs.push(m.regs[i]);
            }
        }
        let mut per_lane_cores: Vec<std::vec::IntoIter<CoreState>> = shells
            .iter_mut()
            .map(|m| std::mem::take(&mut m.cores).into_iter())
            .collect();
        let mut cores = Vec::with_capacity(n * lanes);
        for _c in 0..n {
            for it in per_lane_cores.iter_mut() {
                cores.push(it.next().expect("cores sized n"));
            }
        }
        GangMachine {
            program,
            lanes,
            regs,
            cores,
            shells,
            lane_status: vec![status; lanes],
            strict_hazards,
            replay_enabled,
            tape_invalidated,
            cancel: None,
            deadline: None,
            vc_active: Vec::with_capacity(lanes),
            send_vals: Vec::new(),
        }
    }

    /// The number of lanes (independent scenarios) in this gang.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The shared compile-once artifact every lane executes.
    pub fn program(&self) -> &Arc<CompiledProgram> {
        &self.program
    }

    /// The machine configuration.
    pub fn config(&self) -> &manticore_isa::MachineConfig {
        &self.program.config
    }

    /// Machine cycles per Vcycle (the compiler's VCPL).
    pub fn vcycle_len(&self) -> u64 {
        self.program.vcycle_len
    }

    /// Gang-wide hazard strictness; same invalidation semantics as
    /// [`Machine::set_strict_hazards`].
    pub fn set_strict_hazards(&mut self, strict: bool) {
        if strict && !self.strict_hazards {
            self.tape_invalidated = true;
        }
        self.strict_hazards = strict;
    }

    /// Gang-wide replay enable; see [`Machine::set_replay`].
    pub fn set_replay(&mut self, enabled: bool) {
        self.replay_enabled = enabled;
    }

    /// Installs (or clears) the cooperative cancellation token the gang
    /// polls between lockstep Vcycles — [`Machine::set_cancel_token`] for
    /// the whole gang.
    pub fn set_cancel_token(&mut self, token: Option<manticore_util::CancelToken>) {
        self.cancel = token;
    }

    /// Installs (or clears) the wall-clock deadline the gang polls between
    /// lockstep Vcycles — [`Machine::set_deadline`] for the whole gang.
    pub fn set_deadline(&mut self, deadline: Option<std::time::Instant>) {
        self.deadline = deadline;
    }

    /// Parks one running lane with an error, exactly as if the lane had
    /// faulted on its own: subsequent [`GangMachine::run_vcycles`] calls
    /// report the error without executing the lane, and the survivors keep
    /// running. Finished or already-faulted lanes are left untouched. This
    /// is the fleet's fault-injection hook.
    pub fn park_lane(&mut self, lane: usize, err: MachineError) {
        // At a Vcycle boundary no ganged bookkeeping is needed: the inner
        // loop recomputes `vc_active` from `lane_status` every Vcycle.
        if matches!(self.lane_status[lane], LaneStatus::Running) {
            self.lane_status[lane] = LaneStatus::Faulted(err);
        }
    }

    /// Splices `$display` lines back onto the front of a lane's pending
    /// event queue — the per-lane [`Machine::requeue_displays`], used by
    /// the fleet when a sliced run accumulates displays before a fault.
    pub fn requeue_displays(&mut self, lane: usize, displays: Vec<String>) {
        if displays.is_empty() {
            return;
        }
        self.shells[lane]
            .events
            .splice(0..0, displays.into_iter().map(HostEvent::Display));
    }

    /// Whether post-validation Vcycles run the micro-op engine — the
    /// gang-wide [`Machine::replay_armed`].
    pub fn replay_armed(&self) -> bool {
        replay_armed(
            &self.program,
            self.replay_enabled,
            self.tape_invalidated,
            self.strict_hazards,
        )
    }

    /// Overwrites one lane's architectural register — the per-lane input
    /// vector, exactly [`Machine::poke_reg`] scoped to a lane.
    pub fn poke_reg(&mut self, lane: usize, core: CoreId, reg: Reg, value: u16) {
        let config = &self.program.config;
        let idx = core.linear(config.grid_width);
        self.regs[(idx * config.regfile_size + reg.index()) * self.lanes + lane] = value as u32;
        // Same pending-write override as the solo path: a resumed lane may
        // carry a write to this register across the Vcycle boundary in its
        // pipeline ring.
        self.cores[idx * self.lanes + lane].override_pending(reg.0, value);
    }

    /// Reads a register of one lane as the host sees it at a Vcycle
    /// boundary (in-flight writes applied) — [`Machine::read_reg`] per
    /// lane.
    pub fn read_reg(&self, lane: usize, core: CoreId, reg: Reg) -> u16 {
        let config = &self.program.config;
        let idx = core.linear(config.grid_width);
        let word = self.regs[(idx * config.regfile_size + reg.index()) * self.lanes + lane];
        self.cores[idx * self.lanes + lane].reg_value_flushed_word(word, reg.index())
    }

    /// Reads a scratchpad word of one lane (the scratchpad lives in the
    /// lane's shell).
    pub fn read_scratch(&self, lane: usize, core: CoreId, addr: usize) -> u16 {
        self.shells[lane].read_scratch(core, addr)
    }

    /// Snapshots one lane as a [`Checkpoint`] — the frontier-harvesting
    /// half of a scenario tree: run a gang, checkpoint the interesting
    /// lanes, fork each again. The snapshot records the gang's current
    /// engine knobs, and a parked lane's fault travels with it
    /// ([`Checkpoint::fault`]), so forking a faulted frontier entry
    /// faithfully reproduces parked children.
    pub fn checkpoint_lane(&self, lane: usize) -> Checkpoint {
        let n = self.program.cores.len();
        let rf = self.program.config.regfile_size;
        let lanes = self.lanes;
        let shell = &self.shells[lane];
        // Gather the lane out of the lane-major arrays; everything else
        // (NoC, cache, counters, scratchpad, events) lives in the shell,
        // which the ganged loop keeps current.
        let regs = (0..n * rf).map(|i| self.regs[i * lanes + lane]).collect();
        let cores = (0..n)
            .map(|c| self.cores[c * lanes + lane].clone())
            .collect();
        Checkpoint {
            program: Arc::clone(&self.program),
            cores,
            regs,
            scratch: shell.scratch.clone(),
            noc: shell.noc.clone(),
            cache: shell.cache.clone(),
            compute_time: shell.compute_time,
            counters: shell.counters,
            strict_hazards: self.strict_hazards,
            finish_requested: matches!(self.lane_status[lane], LaneStatus::Finished),
            events: shell.events.clone(),
            replay_enabled: self.replay_enabled,
            tape_invalidated: self.tape_invalidated,
            fault: match &self.lane_status[lane] {
                LaneStatus::Faulted(e) => Some(e.clone()),
                _ => None,
            },
        }
    }

    /// One lane's performance counters (frozen at its fault or finish).
    pub fn counters(&self, lane: usize) -> PerfCounters {
        self.shells[lane].counters
    }

    /// Drains `$display` lines a lane queued before a failure — the
    /// per-lane [`Machine::drain_pending_displays`].
    pub fn drain_pending_displays(&mut self, lane: usize) -> Vec<String> {
        self.shells[lane]
            .events
            .drain(..)
            .filter_map(|ev| match ev {
                HostEvent::Display(s) => Some(s),
                HostEvent::Finish => None,
            })
            .collect()
    }

    /// Runs up to `max_vcycles` Vcycles on every running lane, in
    /// lockstep, and returns one [`Machine::run_vcycles`]-shaped result
    /// per lane.
    ///
    /// A lane that faulted in an earlier call keeps returning its recorded
    /// error (with no further execution); a lane that finished returns an
    /// empty outcome, like a solo machine whose `$finish` already fired.
    pub fn run_vcycles(&mut self, max_vcycles: u64) -> Vec<Result<RunOutcome, MachineError>> {
        let lanes = self.lanes;
        let mut outcomes: Vec<RunOutcome> = (0..lanes).map(|_| RunOutcome::default()).collect();
        let mut errs: Vec<Option<MachineError>> = self
            .lane_status
            .iter()
            .map(|s| match s {
                LaneStatus::Faulted(e) => Some(e.clone()),
                _ => None,
            })
            .collect();
        for _ in 0..max_vcycles {
            if !self
                .lane_status
                .iter()
                .any(|s| matches!(s, LaneStatus::Running))
            {
                break;
            }
            // Cooperative interruption, polled at the lockstep Vcycle
            // boundary: every still-running lane reports the interrupt
            // (the gang advances as one, so they all stop together).
            let stop = if self.cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
                Some(Interrupt::Cancelled)
            } else if self
                .deadline
                .is_some_and(|d| std::time::Instant::now() >= d)
            {
                Some(Interrupt::Deadline)
            } else {
                None
            };
            if let Some(stop) = stop {
                for (l, s) in self.lane_status.iter().enumerate() {
                    if matches!(s, LaneStatus::Running) {
                        outcomes[l].interrupted = Some(stop);
                    }
                }
                break;
            }
            if self.replays_next_vcycle() {
                self.run_one_vcycle_uops_gang();
            } else {
                // Every other Vcycle — validation, disabled replay,
                // permissive hazards, a static cross-Vcycle hazard,
                // strictness re-armed — steps each lane on the solo
                // engine. The first lane to validate proves the schedule
                // for the whole program, so its siblings start on the
                // micro-op engine (see `Machine::step_vcycle`).
                for l in 0..lanes {
                    if !matches!(self.lane_status[l], LaneStatus::Running) {
                        continue;
                    }
                    if let Err(e) = self.step_lane_solo(l) {
                        self.lane_status[l] = LaneStatus::Faulted(e);
                    }
                }
            }
            // Vcycle boundary: count the step, drain host events, park
            // finished lanes, record fresh faults.
            for l in 0..lanes {
                match &self.lane_status[l] {
                    LaneStatus::Running => {
                        outcomes[l].vcycles_run += 1;
                        for ev in self.shells[l].events.drain(..) {
                            match ev {
                                HostEvent::Display(s) => outcomes[l].displays.push(s),
                                HostEvent::Finish => outcomes[l].finished = true,
                            }
                        }
                        if outcomes[l].finished {
                            self.lane_status[l] = LaneStatus::Finished;
                        }
                    }
                    LaneStatus::Faulted(e) if errs[l].is_none() => {
                        errs[l] = Some(e.clone());
                        // Like `Machine::run_vcycles`, displays already
                        // drained into the doomed outcome stay available
                        // via `drain_pending_displays`.
                        let displays = std::mem::take(&mut outcomes[l].displays);
                        if !displays.is_empty() {
                            self.shells[l]
                                .events
                                .splice(0..0, displays.into_iter().map(HostEvent::Display));
                        }
                    }
                    _ => {}
                }
            }
        }
        errs.into_iter()
            .zip(outcomes)
            .map(|(err, outcome)| match err {
                Some(e) => Err(e),
                None => Ok(outcome),
            })
            .collect()
    }

    /// Unbundles the gang into one solo [`Machine`] per lane — final
    /// registers, counters, pending displays, and resumability all intact.
    /// This is how the fleet turns a finished gang back into ordinary
    /// per-job outputs. The lane-major state transposes back into the
    /// shells (sequential streams, no allocation).
    pub fn into_machines(self) -> Vec<Machine> {
        let GangMachine {
            regs,
            cores,
            mut shells,
            lane_status,
            strict_hazards,
            replay_enabled,
            tape_invalidated,
            lanes,
            ..
        } = self;
        for (i, chunk) in regs.chunks_exact(lanes).enumerate() {
            for (shell, &word) in shells.iter_mut().zip(chunk) {
                shell.regs[i] = word;
            }
        }
        for (cs, lane) in cores.into_iter().zip((0..lanes).cycle()) {
            shells[lane].cores.push(cs);
        }
        for (m, status) in shells.iter_mut().zip(lane_status) {
            // The unbundled machines carry the gang's current knobs, and
            // a parked lane unbundles into a parked machine carrying the
            // same fault ([`Machine::fault`]).
            m.strict_hazards = strict_hazards;
            m.replay_enabled = replay_enabled;
            m.tape_invalidated = tape_invalidated;
            m.finish_requested = matches!(status, LaneStatus::Finished);
            m.fault = match status {
                LaneStatus::Faulted(e) => Some(e),
                _ => None,
            };
        }
        shells
    }

    /// True when the next Vcycle runs the ganged kernel: exactly when the
    /// solo engine would replay it ([`replays_next_vcycle`] for the gang's
    /// knobs, which arm only strict runs). Running lanes are in lockstep,
    /// so one lane's Vcycle count speaks for all.
    fn replays_next_vcycle(&self) -> bool {
        (0..self.lanes)
            .find(|&l| matches!(self.lane_status[l], LaneStatus::Running))
            .is_some_and(|l| {
                replays_next_vcycle(
                    &self.program,
                    self.replay_armed(),
                    self.shells[l].counters.vcycles,
                )
            })
    }

    /// The solo fallback: gathers one lane into its shell, steps the shell
    /// one Vcycle on the solo engine, and scatters the state back into the
    /// lane-major arrays. Only each core's first
    /// [`CompiledProgram::reg_span`] registers travel: no instruction,
    /// message or display touches a register above the span, so the
    /// shell's stale copies there are never read, and the lane-major
    /// words (pokes included) stay authoritative.
    fn step_lane_solo(&mut self, lane: usize) -> Result<(), MachineError> {
        let lanes = self.lanes;
        let n = self.program.cores.len();
        let rf = self.program.config.regfile_size;
        let span = self.program.reg_span();
        let shell = &mut self.shells[lane];
        shell.strict_hazards = self.strict_hazards;
        shell.replay_enabled = self.replay_enabled;
        shell.tape_invalidated = self.tape_invalidated;
        let footprint = || (0..n).flat_map(|c| c * rf..c * rf + span);
        for i in footprint() {
            shell.regs[i] = self.regs[i * lanes + lane];
        }
        debug_assert!(shell.cores.is_empty());
        for c in 0..n {
            shell.cores.push(std::mem::replace(
                &mut self.cores[c * lanes + lane],
                CoreState::new(0, 0, 0),
            ));
        }
        let res = shell.step_vcycle();
        for i in footprint() {
            self.regs[i * lanes + lane] = shell.regs[i];
        }
        for (c, cs) in shell.cores.drain(..).enumerate() {
            self.cores[c * lanes + lane] = cs;
        }
        res
    }

    /// One ganged Vcycle on the fused micro-op stream: fetch/decode each
    /// op once, apply it across every running lane with direct commits,
    /// then the pre-resolved epilogue write list. Phase structure and
    /// per-lane architectural effects mirror [`Machine`]'s strict
    /// `run_one_vcycle_uops` exactly — a lane that faults parks with the
    /// state and counters a solo run would have had at the same abort
    /// point.
    fn run_one_vcycle_uops_gang(&mut self) {
        let GangMachine {
            program,
            lanes,
            regs,
            cores,
            shells,
            lane_status,
            vc_active,
            send_vals,
            ..
        } = self;
        let lanes = *lanes;
        let config = &program.config;
        let rf = config.regfile_size;
        let sw = config.scratch_words;
        let vcycle_len = program.vcycle_len;
        let up = program
            .micro_prog
            .as_ref()
            .expect("replays_next_vcycle checked the micro program");

        vc_active.clear();
        for (l, s) in lane_status.iter().enumerate() {
            if matches!(s, LaneStatus::Running) {
                vc_active.push(l as u32);
            }
        }
        let vcycle = shells[vc_active[0] as usize].counters.vcycles;

        send_vals.clear();
        send_vals.resize(up.sends * lanes, 0);

        // Body phase: one fetch/decode per micro-op, all lanes per op,
        // active cores only.
        let mut send_cursor = 0usize;
        for &ci in up.active.iter() {
            let c = ci as usize;
            gang_core_walk(
                program,
                c,
                vcycle,
                lanes,
                sw,
                &mut regs[c * rf * lanes..(c + 1) * rf * lanes],
                program.scratch_range(c).start,
                &mut cores[c * lanes..(c + 1) * lanes],
                &up.streams[c],
                shells,
                lane_status,
                vc_active,
                send_vals,
                &mut send_cursor,
            );
        }
        debug_assert_eq!(send_cursor, up.sends);

        // Delivery and epilogue collapse into the pre-resolved write list,
        // once per lane.
        for &l in vc_active.iter() {
            shells[l as usize].counters.messages_delivered += up.sends as u64;
        }
        let all = vc_active.len() == lanes;
        for e in &up.epi_prog {
            let base = (e.core as usize * rf + e.rd as usize) * lanes;
            let sv = e.send_idx as usize * lanes;
            for_lanes!(all, vc_active, lanes, l, {
                regs[base + l] = send_vals[sv + l] as u32;
            });
        }
        for &ci in up.active.iter() {
            let c = ci as usize;
            let epi = up.epi_exec[c] as u64;
            if epi == 0 {
                continue;
            }
            for &l in vc_active.iter() {
                let l = l as usize;
                cores[c * lanes + l].executed += epi;
                shells[l].counters.instructions += epi;
            }
        }

        for &l in vc_active.iter() {
            let shell = &mut shells[l as usize];
            shell.compute_time += vcycle_len;
            shell.counters.compute_cycles += vcycle_len;
            shell.counters.vcycles += 1;
        }
    }
}

/// One ALU operation on two *register words* (value in the low 16 bits,
/// carry in bit 16 — the storage format of every engine's register file),
/// returning the full result word including its carry bit.
///
/// This is [`AluOp::eval`] re-expressed over u32 words so the gang's
/// direct-commit lane loops are single branch-light integer expressions
/// the compiler can vectorize across lanes: `Add`'s carry-out lands in
/// bit 16 by plain 17-bit arithmetic, `Sub`'s no-borrow bit falls out of
/// `(a | 0x1_0000) - b`. Bit-equivalence with `eval` (for every op and
/// any carry bits on the inputs) is pinned by `alu_word_matches_eval` in
/// the machine test suite.
#[inline(always)]
pub(crate) fn alu_word(op: AluOp, a: u32, b: u32) -> u32 {
    let av = a & 0xffff;
    let bv = b & 0xffff;
    match op {
        AluOp::Add => av + bv,
        AluOp::Sub => (av | 0x1_0000) - bv,
        AluOp::And => av & bv,
        AluOp::Or => av | bv,
        AluOp::Xor => av ^ bv,
        AluOp::Sll => {
            if bv >= 16 {
                0
            } else {
                (av << bv) & 0xffff
            }
        }
        AluOp::Srl => {
            if bv >= 16 {
                0
            } else {
                av >> bv
            }
        }
        AluOp::Sra => (((av as u16 as i16) >> bv.min(15)) as u16) as u32,
        AluOp::Seq => (av == bv) as u32,
        AluOp::Sltu => (av < bv) as u32,
        AluOp::Slts => ((av as u16 as i16) < (bv as u16 as i16)) as u32,
        AluOp::Mul => (av as u16).wrapping_mul(bv as u16) as u32,
        AluOp::Mulh => (av * bv) >> 16,
    }
}

/// The ALU lane loop with the function dispatch hoisted *outside* the
/// lane loop: each arm monomorphizes `go` on a constant-receiver
/// [`alu_word`] kernel, so the innermost loop is branch-free for the
/// common ops — one fetch, one function select, K lane applications.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn alu_lanes(
    op: AluOp,
    all: bool,
    vc: &[u32],
    lanes: usize,
    creg: &mut [u32],
    rd: u16,
    rs1: u16,
    rs2: u16,
) {
    let brd = rd as usize * lanes;
    let b1 = rs1 as usize * lanes;
    let b2 = rs2 as usize * lanes;
    #[inline(always)]
    fn go(
        word: impl Fn(u32, u32) -> u32,
        all: bool,
        vc: &[u32],
        lanes: usize,
        creg: &mut [u32],
        brd: usize,
        b1: usize,
        b2: usize,
    ) {
        if all {
            // Fixed-width chunks: staging the sources into by-value arrays
            // breaks the load/store alias through `creg`, so the chunk body
            // is branch-free straight-line code the compiler can vectorize.
            let mut l = 0;
            while l + 8 <= lanes {
                let a: [u32; 8] = creg[b1 + l..b1 + l + 8].try_into().unwrap();
                let b: [u32; 8] = creg[b2 + l..b2 + l + 8].try_into().unwrap();
                let dst = &mut creg[brd + l..brd + l + 8];
                for k in 0..8 {
                    dst[k] = word(a[k], b[k]);
                }
                l += 8;
            }
            while l < lanes {
                let a = creg[b1 + l];
                let b = creg[b2 + l];
                creg[brd + l] = word(a, b);
                l += 1;
            }
        } else {
            for &li in vc.iter() {
                let l = li as usize;
                let a = creg[b1 + l];
                let b = creg[b2 + l];
                creg[brd + l] = word(a, b);
            }
        }
    }
    macro_rules! arm {
        ($v:ident) => {
            go(
                |a, b| alu_word(AluOp::$v, a, b),
                all,
                vc,
                lanes,
                creg,
                brd,
                b1,
                b2,
            )
        };
    }
    match op {
        AluOp::Add => arm!(Add),
        AluOp::Sub => arm!(Sub),
        AluOp::And => arm!(And),
        AluOp::Or => arm!(Or),
        AluOp::Xor => arm!(Xor),
        AluOp::Sll => arm!(Sll),
        AluOp::Srl => arm!(Srl),
        AluOp::Sra => arm!(Sra),
        AluOp::Seq => arm!(Seq),
        AluOp::Sltu => arm!(Sltu),
        AluOp::Slts => arm!(Slts),
        AluOp::Mul => arm!(Mul),
        AluOp::Mulh => arm!(Mulh),
    }
}

/// The Mux lane loop (shared by `Mux` and both halves of `MuxMux`).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn mux_lanes(
    all: bool,
    vc: &[u32],
    lanes: usize,
    creg: &mut [u32],
    rd: u16,
    rs_sel: u16,
    rs1: u16,
    rs2: u16,
) {
    let brd = rd as usize * lanes;
    let bsel = rs_sel as usize * lanes;
    let b1 = rs1 as usize * lanes;
    let b2 = rs2 as usize * lanes;
    if all {
        // Same fixed-width staged chunks as `alu_lanes::go`.
        let mut l = 0;
        while l + 8 <= lanes {
            let s: [u32; 8] = creg[bsel + l..bsel + l + 8].try_into().unwrap();
            let a: [u32; 8] = creg[b1 + l..b1 + l + 8].try_into().unwrap();
            let b: [u32; 8] = creg[b2 + l..b2 + l + 8].try_into().unwrap();
            let dst = &mut creg[brd + l..brd + l + 8];
            for k in 0..8 {
                let v = if s[k] & 0xffff != 0 { a[k] } else { b[k] };
                dst[k] = v & 0xffff;
            }
            l += 8;
        }
        while l < lanes {
            let s = creg[bsel + l] & 0xffff;
            let v = if s != 0 { creg[b1 + l] } else { creg[b2 + l] };
            creg[brd + l] = v & 0xffff;
            l += 1;
        }
    } else {
        for &li in vc.iter() {
            let l = li as usize;
            let s = creg[bsel + l] & 0xffff;
            let v = if s != 0 { creg[b1 + l] } else { creg[b2 + l] };
            creg[brd + l] = v & 0xffff;
        }
    }
}

/// Records one send position's value for every running lane.
#[inline(always)]
fn send_lanes(
    all: bool,
    vc: &[u32],
    lanes: usize,
    creg: &[u32],
    rs: u16,
    send_vals: &mut [u16],
    cursor: usize,
) {
    let b = rs as usize * lanes;
    let base = cursor * lanes;
    for_lanes!(all, vc, lanes, l, {
        send_vals[base + l] = creg[b + l] as u16;
    });
}

/// Walks one core's micro-op stream for one Vcycle across every lane in
/// `vc_active`: the op is decoded once (ALU function included), the lane
/// loop is the innermost loop, and every write commits directly (strict
/// hazards, validated), exactly like the solo engine's direct
/// `uops::run_core_uops`. `shells` carries each lane's cache, counters,
/// and host events.
///
/// A lane whose `Expect` servicing fails is parked in place: its counters
/// flush through the faulting op plus the interpreter's other-core counts
/// ([`crate::uops::MicroProgram::fault_counters`]) — the solo engine's
/// abort point — its status records the error, and it drops out of
/// `vc_active` so no later op, core, or delivery touches it this Vcycle.
#[allow(clippy::too_many_arguments)]
fn gang_core_walk(
    program: &CompiledProgram,
    c: usize,
    vcycle: u64,
    lanes: usize,
    sw: usize,
    creg: &mut [u32],
    scr_base: usize,
    cstates: &mut [CoreState],
    stream: &[MicroOp],
    shells: &mut [Machine],
    lane_status: &mut [LaneStatus],
    vc_active: &mut Vec<u32>,
    send_vals: &mut [u16],
    send_cursor: &mut usize,
) {
    let exceptions = &program.exceptions[..];
    let prog = &program.cores[c];
    let mut all = vc_active.len() == lanes;
    // Writes left in flight by a previous Vcycle on the solo engine (e.g.
    // each lane's validation Vcycle) commit now; no read could have
    // observed them pending.
    for_lanes!(all, vc_active, lanes, l, {
        cstates[l].commit_due_strided(creg, lanes, l, u64::MAX);
    });
    let mut ic: u64 = 0;
    let mut sends: u64 = 0;
    for mop in stream {
        match mop.op {
            UOp::Set { rd, imm } => {
                ic += 1;
                let brd = rd as usize * lanes;
                for_lanes!(all, vc_active, lanes, l, {
                    creg[brd + l] = imm as u32;
                });
            }
            UOp::Alu { op, rd, rs1, rs2 } => {
                ic += 1;
                alu_lanes(op, all, vc_active, lanes, creg, rd, rs1, rs2);
            }
            UOp::AddCarry { rd, rs1, rs2, rsc } => {
                ic += 1;
                let brd = rd as usize * lanes;
                let b1 = rs1 as usize * lanes;
                let b2 = rs2 as usize * lanes;
                let bc = rsc as usize * lanes;
                for_lanes!(all, vc_active, lanes, l, {
                    let a = creg[b1 + l] & 0xffff;
                    let b = creg[b2 + l] & 0xffff;
                    let cin = (creg[bc + l] >> 16) & 1;
                    let sum = a + b + cin;
                    creg[brd + l] = (sum as u16) as u32 | (((sum > 0xffff) as u32) << 16);
                });
            }
            UOp::SubBorrow { rd, rs1, rs2, rsb } => {
                ic += 1;
                let brd = rd as usize * lanes;
                let b1 = rs1 as usize * lanes;
                let b2 = rs2 as usize * lanes;
                let bb = rsb as usize * lanes;
                for_lanes!(all, vc_active, lanes, l, {
                    let a = (creg[b1 + l] as u16) as i32;
                    let b = (creg[b2 + l] as u16) as i32;
                    let cin = ((creg[bb + l] >> 16) & 1) as i32;
                    let diff = a - b - (1 - cin);
                    creg[brd + l] = (diff as u16) as u32 | (((diff >= 0) as u32) << 16);
                });
            }
            UOp::Mux {
                rd,
                rs_sel,
                rs1,
                rs2,
            } => {
                ic += 1;
                mux_lanes(all, vc_active, lanes, creg, rd, rs_sel, rs1, rs2);
            }
            UOp::Slice {
                rd,
                rs,
                shift,
                mask,
            } => {
                ic += 1;
                let brd = rd as usize * lanes;
                let b = rs as usize * lanes;
                for_lanes!(all, vc_active, lanes, l, {
                    let v = creg[b + l] as u16;
                    creg[brd + l] = ((v >> shift) & mask) as u32;
                });
            }
            UOp::Custom { rd, func, rs } => {
                ic += 1;
                let masks = &prog.custom_masks[func as usize];
                let brd = rd as usize * lanes;
                let b0 = rs[0] as usize * lanes;
                let b1 = rs[1] as usize * lanes;
                let b2 = rs[2] as usize * lanes;
                let b3 = rs[3] as usize * lanes;
                let one = |creg: &mut [u32], l: usize| {
                    let a = creg[b0 + l] as u16;
                    let b = creg[b1 + l] as u16;
                    let c = creg[b2 + l] as u16;
                    let d = creg[b3 + l] as u16;
                    creg[brd + l] = crate::exec::eval_custom_masks(masks, a, b, c, d) as u32;
                };
                if all {
                    // Four lanes per mux tree: the bitsliced evaluation is
                    // pure word logic, so packing lanes into 16-bit slots
                    // of a u64 amortizes the whole tree 4x. The broadcast
                    // masks are precomputed at load.
                    let m64 = &prog.custom_masks_x4[func as usize];
                    let mut l = 0;
                    while l + 4 <= lanes {
                        let pack = |base: usize, creg: &[u32]| -> u64 {
                            (creg[base + l] as u64 & 0xffff)
                                | ((creg[base + l + 1] as u64 & 0xffff) << 16)
                                | ((creg[base + l + 2] as u64 & 0xffff) << 32)
                                | ((creg[base + l + 3] as u64 & 0xffff) << 48)
                        };
                        let a = pack(b0, creg);
                        let b = pack(b1, creg);
                        let c = pack(b2, creg);
                        let d = pack(b3, creg);
                        let out = crate::exec::eval_custom_masks_x4(m64, a, b, c, d);
                        for k in 0..4 {
                            creg[brd + l + k] = ((out >> (16 * k)) & 0xffff) as u32;
                        }
                        l += 4;
                    }
                    for l in l..lanes {
                        one(creg, l);
                    }
                } else {
                    for &l in vc_active.iter() {
                        one(creg, l as usize);
                    }
                }
            }
            UOp::Predicate { rs } => {
                ic += 1;
                let b = rs as usize * lanes;
                for_lanes!(all, vc_active, lanes, l, {
                    cstates[l].predicate = creg[b + l] as u16 != 0;
                });
            }
            UOp::LocalLoad { rd, rs_addr, base } => {
                ic += 1;
                let brd = rd as usize * lanes;
                let ba = rs_addr as usize * lanes;
                for_lanes!(all, vc_active, lanes, l, {
                    let a = creg[ba + l] as u16;
                    let addr = (base as usize + a as usize) % sw;
                    creg[brd + l] = shells[l].scratch[scr_base + addr] as u32;
                });
            }
            UOp::LocalStore {
                rs_data,
                rs_addr,
                base,
            } => {
                ic += 1;
                let bd = rs_data as usize * lanes;
                let ba = rs_addr as usize * lanes;
                for_lanes!(all, vc_active, lanes, l, {
                    let v = creg[bd + l] as u16;
                    let a = creg[ba + l] as u16;
                    if cstates[l].predicate {
                        let addr = (base as usize + a as usize) % sw;
                        shells[l].scratch[scr_base + addr] = v;
                    }
                });
            }
            UOp::GlobalLoad { rd, rs_addr } => {
                ic += 1;
                let b0 = rs_addr[0] as usize * lanes;
                let b1 = rs_addr[1] as usize * lanes;
                let b2 = rs_addr[2] as usize * lanes;
                for_lanes!(all, vc_active, lanes, l, {
                    let addr = (creg[b0 + l] as u64 & 0xffff)
                        | ((creg[b1 + l] as u64 & 0xffff) << 16)
                        | ((creg[b2 + l] as u64 & 0xffff) << 32);
                    let shell = &mut shells[l];
                    let (v, stall) = shell.cache.load(addr);
                    shell.counters.stall_cycles += stall;
                    creg[rd as usize * lanes + l] = v as u32;
                });
            }
            UOp::GlobalStore { rs_data, rs_addr } => {
                ic += 1;
                let bd = rs_data as usize * lanes;
                let b0 = rs_addr[0] as usize * lanes;
                let b1 = rs_addr[1] as usize * lanes;
                let b2 = rs_addr[2] as usize * lanes;
                for_lanes!(all, vc_active, lanes, l, {
                    let v = creg[bd + l] as u16;
                    let addr = (creg[b0 + l] as u64 & 0xffff)
                        | ((creg[b1 + l] as u64 & 0xffff) << 16)
                        | ((creg[b2 + l] as u64 & 0xffff) << 32);
                    if cstates[l].predicate {
                        let shell = &mut shells[l];
                        let stall = shell.cache.store(addr, v);
                        shell.counters.stall_cycles += stall;
                    }
                });
            }
            UOp::Send { rs } => {
                ic += 1;
                sends += 1;
                send_lanes(all, vc_active, lanes, creg, rs, send_vals, *send_cursor);
                *send_cursor += 1;
            }
            UOp::Expect { rs1, rs2, eid } => {
                ic += 1;
                let b1 = rs1 as usize * lanes;
                let b2 = rs2 as usize * lanes;
                let mut i = 0;
                while i < vc_active.len() {
                    let l = vc_active[i] as usize;
                    let a = creg[b1 + l] as u16;
                    let b = creg[b2 + l] as u16;
                    if a == b {
                        i += 1;
                        continue;
                    }
                    let shell = &mut shells[l];
                    let res = service_exception(
                        exceptions,
                        vcycle,
                        |r: Reg| creg[r.index() * lanes + l] as u16,
                        eid,
                        &mut shell.counters,
                        &mut shell.events,
                    );
                    match res {
                        Ok(()) => i += 1,
                        Err(err) => {
                            // Park the lane where a solo run would have
                            // aborted: counters flushed through the
                            // faulting op, no further execution.
                            cstates[l].executed += ic;
                            shell.counters.instructions += ic;
                            shell.counters.sends += sends;
                            let up = program.micro_prog.as_ref().expect("replaying");
                            shell
                                .counters
                                .add(&up.fault_counters(&program.cores, mop.pos as u64));
                            lane_status[l] = LaneStatus::Faulted(err);
                            vc_active.remove(i);
                        }
                    }
                }
                all = vc_active.len() == lanes;
            }
            UOp::AluAlu {
                op1,
                rd1,
                rs11,
                rs12,
                op2,
                rd2,
                rs21,
                rs22,
            } => {
                ic += 2;
                alu_lanes(op1, all, vc_active, lanes, creg, rd1, rs11, rs12);
                alu_lanes(op2, all, vc_active, lanes, creg, rd2, rs21, rs22);
            }
            UOp::MuxMux {
                rd1,
                sel1,
                rs11,
                rs12,
                rd2,
                sel2,
                rs21,
                rs22,
            } => {
                ic += 2;
                mux_lanes(all, vc_active, lanes, creg, rd1, sel1, rs11, rs12);
                mux_lanes(all, vc_active, lanes, creg, rd2, sel2, rs21, rs22);
            }
            UOp::AluSend {
                op,
                rd,
                rs1,
                rs2,
                rs_send,
            } => {
                ic += 2;
                sends += 1;
                alu_lanes(op, all, vc_active, lanes, creg, rd, rs1, rs2);
                send_lanes(
                    all,
                    vc_active,
                    lanes,
                    creg,
                    rs_send,
                    send_vals,
                    *send_cursor,
                );
                *send_cursor += 1;
            }
            UOp::SendSend { rs1, rs2 } => {
                ic += 2;
                sends += 2;
                send_lanes(all, vc_active, lanes, creg, rs1, send_vals, *send_cursor);
                send_lanes(
                    all,
                    vc_active,
                    lanes,
                    creg,
                    rs2,
                    send_vals,
                    *send_cursor + 1,
                );
                *send_cursor += 2;
            }
        }
    }
    for &l in vc_active.iter() {
        let l = l as usize;
        cstates[l].executed += ic;
        shells[l].counters.instructions += ic;
        shells[l].counters.sends += sends;
    }
}
