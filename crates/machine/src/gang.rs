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
//! (*lanes*) of one shared program in lockstep, with the hot register
//! state laid out as **lane rows**: one `[u32; W]` row per register of
//! each *footprint core* — a core some instruction or message can change
//! ([`CompiledProgram`]'s `reg_cores`) — and only for the registers the
//! program names (`reg < reg_span`). The word for `(core, reg, lane)`
//! lives at `(slot(core) * reg_span + reg) * W + lane`, where `slot` is
//! the core's position among the footprint cores and `W` is the lane
//! count rounded up to a power of two. The kernel walks the flat Vcycle
//! program ([`crate::uops`]) one core range at a time and indexes the
//! core's rows by `operand − core * regfile_size`. Each micro-op is fetched
//! and decoded **once** (its ALU function is its opcode), and a register
//! op is one straight-line row operation `rows[rd] = f(rows[rs1],
//! rows[rs2])` over all `W` lanes. A custom function is one bitsliced
//! mux tree over the rows (its 16 masks broadcast to rows), the same tree
//! the solo engine runs on one `u16`. The kernel is monomorphised by
//! width (`gang_core_walk::<W>` at W = 1, 2, 4, .., [`MAX_LANES`]), so
//! the lane loop has a compile-time length and no lane mask: decoding is
//! paid once per op, and the width sets only the execute work.
//!
//! **One kernel per gang.** Each width is compiled twice: for the
//! target's baseline ISA and, on x86-64, in a `#[target_feature(enable =
//! "avx2,bmi2")]` wrapper, where the always-inlined kernel's row
//! operations become 256-bit vector operations. The constructor picks the
//! `(W, ISA)` instantiation once — AVX2 exactly when the host reports it
//! at run time — and stores it on the gang ([`GangMachine::kernel`] names
//! it), so a Vcycle makes one indirect call and no width or ISA match.
//! The solo engine stays on the baseline build.
//!
//! **Shells.** The constructors boot one plain solo [`Machine`] per lane
//! and copy the footprint rows out of its register file (and move the
//! footprint cores' [`CoreState`]s out) once. The machines stay around as
//! *shells*: they keep owning each lane's NoC, cache, counters, host
//! events, scratchpad lanes (scratch accesses are data-dependent per-lane
//! gathers a lane stride cannot batch), every register outside the
//! footprint, and the core states of every other core. No instruction
//! reads a register outside the footprint, so a poke or read there goes
//! straight to the lane's shell.
//!
//! **One kernel, one fallback.** The ganged kernel is the direct-commit
//! micro-op loop, and it runs exactly when a solo run would replay the
//! Vcycle ([`replays_next_vcycle`]; replay arms only strict runs). Every
//! other Vcycle (the validation Vcycle of an unproven program, disabled
//! replay, permissive hazards, a strict program with a static cross-Vcycle
//! hazard, strictness re-armed mid-run) steps each running lane on the
//! solo engine ([`Machine::step_vcycle`], the one reference semantics):
//! move the lane's footprint into its shell, step it, move it back. The
//! first lane to validate proves the program's schedule
//! ([`CompiledProgram::schedule_proven`]) for its siblings and for every
//! later gang.
//!
//! What is shared and what is per-lane:
//!
//! - **shared**: the program (bodies, the flat micro-op program,
//!   pre-resolved epilogue writes), the hazard/replay knobs, and the
//!   lockstep clock.
//!   Message delivery follows the shared frozen epilogue writes, so lanes
//!   can never diverge in *when* or *where* a message lands — only its
//!   value differs.
//! - **per-lane**: register/scratchpad values, pipeline rings and
//!   predicates ([`CoreState`]), the privileged core's cache and DRAM,
//!   performance counters, host events, and the error/finish status.
//!
//! **Parking.** The only data-dependent outcomes are the privileged
//! core's `Expect`s (assertion failures, `$display`, `$finish`) and cache
//! stalls. A lane whose run faults or finishes is *parked*: its
//! [`MachineError`] is recorded at its Vcycle, and its footprint moves
//! into its shell exactly where a solo run would have stopped (mid-Vcycle
//! for a failing `Expect`). From then on the shell is authoritative for
//! that lane, so the row operations need no lane mask: they keep
//! computing the parked lane's (and the padding lanes') columns, which
//! nothing reads. Only the ops with per-lane side effects — scratchpad
//! and cache accesses, `Predicate`, `Expect` and the counters — iterate
//! the running lanes.
//!
//! **Bit-identity.** The equivalence suite (`tests/gang_equivalence.rs`)
//! pins the ganged path to K solo runs bit for bit: registers, counters,
//! displays, and errors — across every specialised and padded width and
//! hazard strictness.

use std::ops::{BitAnd, BitOr, Not, Range};
use std::sync::Arc;

use manticore_isa::{AluOp, CoreId, Reg};

use crate::checkpoint::Checkpoint;
use crate::core::CoreState;
use crate::exec::{custom_mux_tree, service_exception};
use crate::grid::{
    replay_armed, replays_next_vcycle, HostEvent, Interrupt, Machine, MachineError, PerfCounters,
    RunOutcome,
};
use crate::program::CompiledProgram;
use crate::uops::{alu_word, Alu3, UOp};

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

/// The most lanes one gang can hold. Past this width the lane rows stop
/// paying for themselves (and the fleet's `run_ganged` simply opens
/// another gang), so wider requests clamp here.
pub const MAX_LANES: usize = 64;

/// K independent runs of one shared [`CompiledProgram`], executed in
/// lockstep. See the module docs for the layout, the solo fallback, and
/// the bit-identity contract.
#[derive(Debug)]
pub struct GangMachine {
    program: Arc<CompiledProgram>,
    lanes: usize,
    /// Footprint lane rows: the word for `(core, reg, lane)` lives at
    /// `(slot(core) * reg_span + reg) * W + lane`, with `slot` the
    /// core's position in the program's `reg_cores`. Low 16 bits value,
    /// bit 16 the carry bit, as in [`Machine`]. Holds a lane's state only
    /// while it runs; a parked lane's columns are stale.
    rows: Vec<u32>,
    /// The footprint cores' run states (pipeline ring, predicate, epilogue
    /// slots): `slot(core) * lanes + lane`. A parked lane's entries are
    /// empty placeholders; its states live in its shell.
    cores: Vec<CoreState>,
    /// One solo machine shell per lane: NoC, cache, counters, compute
    /// time, host events, the **scratchpad**, every register outside the
    /// footprint and the run states of every other core (the ganged loop
    /// updates them in place). Its footprint registers are stale and its
    /// footprint core states are placeholders while the lane runs; once
    /// the lane parks, the shell holds all of its state.
    shells: Vec<Machine>,
    lane_status: Vec<LaneStatus>,
    strict_hazards: bool,
    replay_enabled: bool,
    tape_invalidated: bool,
    /// Some running lane's footprint rings may hold in-flight writes: set
    /// at construction and by every solo-engine Vcycle; the kernel drains
    /// them once and clears it ([`Machine`]'s `rings_live` for the rows).
    rings_live: bool,
    /// Cooperative cancellation, polled between lockstep Vcycles —
    /// [`Machine::set_cancel_token`] for the whole gang.
    cancel: Option<manticore_util::CancelToken>,
    /// Wall-clock deadline, polled between lockstep Vcycles.
    deadline: Option<std::time::Instant>,
    // ---- reusable buffers: nothing below allocates per Vcycle ----
    /// Lanes running in the current ganged Vcycle; shrinks when a lane
    /// faults mid-Vcycle.
    vc_active: Vec<u32>,
    /// Lanes that faulted during the current core walk, whose other
    /// cores still move to their shells.
    parked: Vec<u32>,
    /// This Vcycle's send values, one row per send: `send_idx * W +
    /// lane`.
    send_rows: Vec<u32>,
    /// The replay kernel for this gang's row width, chosen once when the
    /// gang is built ([`kernel_for`]), and its instruction set's name.
    kernel: Kernel,
    kernel_isa: &'static str,
}

/// One replayed Vcycle of a gang ([`GangMachine::run_kernel`]) at one
/// fixed row width, compiled for one instruction set.
type Kernel = fn(&mut GangMachine);

/// The kernel at row width `width` (a power of two up to [`MAX_LANES`])
/// and the name of its instruction set: with `avx2`, on an x86-64 host
/// that reports AVX2 and BMI2 at run time, the copy compiled for them;
/// otherwise the target's baseline build. Both are thin wrappers around
/// the same `#[inline(always)]` [`GangMachine::run_kernel`], so each
/// wrapper's copy of the whole core walk gets the wrapper's target
/// features.
fn kernel_for(width: usize, avx2: bool) -> (Kernel, &'static str) {
    fn portable<const W: usize>(gang: &mut GangMachine) {
        gang.run_kernel::<W>();
    }
    #[cfg(target_arch = "x86_64")]
    fn avx2_bmi2<const W: usize>(gang: &mut GangMachine) {
        #[target_feature(enable = "avx2,bmi2")]
        fn run<const W: usize>(gang: &mut GangMachine) {
            gang.run_kernel::<W>();
        }
        // SAFETY: `pick` hands this kernel out only on a host where
        // `is_x86_feature_detected!` reported AVX2 and BMI2.
        unsafe { run::<W>(gang) }
    }
    fn pick<const W: usize>(avx2: bool) -> (Kernel, &'static str) {
        #[cfg(target_arch = "x86_64")]
        if avx2
            && std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("bmi2")
        {
            return (avx2_bmi2::<W>, "avx2");
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = avx2;
        (portable::<W>, "portable")
    }
    match width {
        1 => pick::<1>(avx2),
        2 => pick::<2>(avx2),
        4 => pick::<4>(avx2),
        8 => pick::<8>(avx2),
        16 => pick::<16>(avx2),
        32 => pick::<32>(avx2),
        64 => pick::<64>(avx2),
        w => unreachable!("gang width {w} is a power of two up to MAX_LANES"),
    }
}

/// Where a gang keeps its running lanes' footprints: the program's
/// footprint cores, the rows' geometry, and the shells' register stride.
#[derive(Debug, Clone, Copy)]
struct Footprint<'a> {
    /// The program's `reg_cores`; a core's position here is its slot.
    cores: &'a [u32],
    lanes: usize,
    /// Row width `W`: `lanes` rounded up to a power of two. Lanes
    /// `lanes..W` pad the rows and never run.
    width: usize,
    span: usize,
    rf: usize,
}

impl<'a> Footprint<'a> {
    fn of(program: &'a CompiledProgram, lanes: usize) -> Footprint<'a> {
        Footprint {
            cores: &program.reg_cores,
            lanes,
            width: lanes.next_power_of_two(),
            span: program.reg_span(),
            rf: program.config.regfile_size,
        }
    }

    /// Moves a lane's footprint out of the rows into its shell: each
    /// footprint core's rows (except `skip`'s, which a mid-walk park
    /// copied already) and its core states. From here on the shell holds
    /// the lane.
    fn move_to_shell(
        self,
        rows: &[u32],
        cores: &mut [CoreState],
        shell: &mut Machine,
        lane: usize,
        skip: Option<usize>,
    ) {
        self.copy_regs(rows, &mut shell.regs, lane, skip);
        for (k, &c) in self.cores.iter().enumerate() {
            std::mem::swap(
                &mut cores[k * self.lanes + lane],
                &mut shell.cores[c as usize],
            );
        }
    }

    /// Copies a lane's rows into a `regfile_size`-strided register file,
    /// except core `skip`'s.
    fn copy_regs(self, rows: &[u32], regs: &mut [u32], lane: usize, skip: Option<usize>) {
        for (k, &c) in self.cores.iter().enumerate() {
            let c = c as usize;
            if skip != Some(c) {
                let dst = &mut regs[c * self.rf..c * self.rf + self.span];
                for (r, word) in dst.iter_mut().enumerate() {
                    *word = rows[(k * self.span + r) * self.width + lane];
                }
            }
        }
    }

    /// The inverse of [`Footprint::move_to_shell`]: moves a lane's
    /// footprint from its shell into the rows.
    fn move_to_rows(
        self,
        rows: &mut [u32],
        cores: &mut [CoreState],
        shell: &mut Machine,
        lane: usize,
    ) {
        for (k, &c) in self.cores.iter().enumerate() {
            let c = c as usize;
            let src = &shell.regs[c * self.rf..c * self.rf + self.span];
            for (r, &word) in src.iter().enumerate() {
                rows[(k * self.span + r) * self.width + lane] = word;
            }
            std::mem::swap(&mut cores[k * self.lanes + lane], &mut shell.cores[c]);
        }
    }
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

    /// Moves booted solo machines' footprints into the lane rows — paid
    /// once per gang, proportional to the footprint. A lane that starts
    /// parked stays in its shell. The machines stay behind as shells (see
    /// the module docs and [`GangMachine::shells`]).
    fn from_shells(
        program: Arc<CompiledProgram>,
        mut shells: Vec<Machine>,
        status: LaneStatus,
        strict_hazards: bool,
        replay_enabled: bool,
        tape_invalidated: bool,
    ) -> GangMachine {
        let lanes = shells.len();
        let fp = Footprint::of(&program, lanes);
        let mut rows = vec![0; fp.cores.len() * fp.span * fp.width];
        let mut cores = vec![CoreState::default(); fp.cores.len() * lanes];
        if matches!(status, LaneStatus::Running) {
            for (lane, shell) in shells.iter_mut().enumerate() {
                fp.move_to_rows(&mut rows, &mut cores, shell, lane);
            }
        }
        let (kernel, kernel_isa) = kernel_for(fp.width, true);
        GangMachine {
            program,
            lanes,
            rows,
            cores,
            shells,
            lane_status: vec![status; lanes],
            strict_hazards,
            replay_enabled,
            tape_invalidated,
            rings_live: true,
            cancel: None,
            deadline: None,
            vc_active: Vec::with_capacity(lanes),
            parked: Vec::with_capacity(lanes),
            send_rows: Vec::new(),
            kernel,
            kernel_isa,
        }
    }

    /// Re-selects the kernel as the constructor does, but with `avx2`
    /// false takes the portable one: the seam the kernel tests use to
    /// hold both instantiations against solo runs.
    #[cfg(test)]
    pub(crate) fn select_kernel(&mut self, avx2: bool) {
        (self.kernel, self.kernel_isa) = kernel_for(self.lanes.next_power_of_two(), avx2);
    }

    /// Whether the lane runs, i.e. its footprint lives in the rows.
    fn running(&self, lane: usize) -> bool {
        matches!(self.lane_status[lane], LaneStatus::Running)
    }

    /// Parks a running lane: records its final status and moves its
    /// footprint into its shell.
    fn park(&mut self, lane: usize, status: LaneStatus) {
        debug_assert!(self.running(lane));
        let fp = Footprint::of(&self.program, self.lanes);
        fp.move_to_shell(
            &self.rows,
            &mut self.cores,
            &mut self.shells[lane],
            lane,
            None,
        );
        self.lane_status[lane] = status;
    }

    /// The rows word of `(core, reg)` for a running lane, or `None` when
    /// the register lives in the lane's shell.
    fn row_word(&self, lane: usize, idx: usize, reg: usize) -> Option<(usize, usize)> {
        let fp = Footprint::of(&self.program, self.lanes);
        let k = self.program.reg_slot(idx)?;
        (reg < fp.span && self.running(lane)).then(|| ((k * fp.span + reg) * fp.width + lane, k))
    }

    /// The number of lanes (independent scenarios) in this gang.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Words of register state in the lane rows: footprint cores ×
    /// `reg_span` × row width. This is what the kernel touches, and what
    /// boot, a solo-engine fallback step and unbundling move per lane.
    pub fn reg_words(&self) -> usize {
        self.rows.len()
    }

    /// The instruction set the gang's replay kernel is compiled for,
    /// `"avx2"` or `"portable"`: the widest one the host runs, chosen
    /// once when the gang is built.
    pub fn kernel(&self) -> &'static str {
        self.kernel_isa
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
        if self.running(lane) {
            self.park(lane, LaneStatus::Faulted(err));
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
    /// vector, exactly [`Machine::poke_reg`] scoped to a lane. A register
    /// outside the footprint, or any register of a parked lane, is poked
    /// in the lane's shell.
    pub fn poke_reg(&mut self, lane: usize, core: CoreId, reg: Reg, value: u16) {
        let idx = core.linear(self.program.config.grid_width);
        match self.row_word(lane, idx, reg.index()) {
            Some((word, k)) => {
                self.rows[word] = value as u32;
                // Same pending-write override as the solo path: a resumed
                // lane may carry a write to this register across the
                // Vcycle boundary in its pipeline ring.
                self.cores[k * self.lanes + lane].override_pending(reg.0, value);
            }
            None => self.shells[lane].poke_reg(core, reg, value),
        }
    }

    /// Reads a register of one lane as the host sees it at a Vcycle
    /// boundary (in-flight writes applied) — [`Machine::read_reg`] per
    /// lane.
    pub fn read_reg(&self, lane: usize, core: CoreId, reg: Reg) -> u16 {
        let idx = core.linear(self.program.config.grid_width);
        match self.row_word(lane, idx, reg.index()) {
            Some((word, k)) => self.cores[k * self.lanes + lane]
                .reg_value_flushed_word(self.rows[word], reg.index()),
            None => self.shells[lane].read_reg(core, reg),
        }
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
        let shell = &self.shells[lane];
        // Everything but a running lane's footprint lives in the shell,
        // which the ganged loop keeps current.
        let mut regs = shell.regs.clone();
        let mut cores = shell.cores.clone();
        if self.running(lane) {
            let fp = Footprint::of(&self.program, self.lanes);
            fp.copy_regs(&self.rows, &mut regs, lane, None);
            for (k, &c) in fp.cores.iter().enumerate() {
                cores[c as usize] = self.cores[k * fp.lanes + lane].clone();
            }
        }
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
            if !(0..lanes).any(|l| self.running(l)) {
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
                for (l, outcome) in outcomes.iter_mut().enumerate() {
                    if self.running(l) {
                        outcome.interrupted = Some(stop);
                    }
                }
                break;
            }
            if self.replays_next_vcycle() {
                (self.kernel)(self);
            } else {
                // Every other Vcycle — validation, disabled replay,
                // permissive hazards, a static cross-Vcycle hazard,
                // strictness re-armed — steps each lane on the solo
                // engine. The first lane to validate proves the schedule
                // for the whole program, so its siblings start on the
                // micro-op engine (see `Machine::step_vcycle`).
                self.rings_live = true;
                for l in 0..lanes {
                    if !self.running(l) {
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
                            self.park(l, LaneStatus::Finished);
                        }
                    }
                    LaneStatus::Faulted(e) if errs[l].is_none() => {
                        errs[l] = Some(e.clone());
                        // Like `Machine::run_vcycles`, displays already
                        // drained into the doomed outcome stay available
                        // via `drain_pending_displays`.
                        let displays = std::mem::take(&mut outcomes[l].displays);
                        self.requeue_displays(l, displays);
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
    /// per-job outputs. Each running lane's footprint moves back into its
    /// shell (no allocation); a parked lane's shell already holds it.
    pub fn into_machines(mut self) -> Vec<Machine> {
        let fp = Footprint::of(&self.program, self.lanes);
        for lane in 0..self.lanes {
            if self.running(lane) {
                fp.move_to_shell(
                    &self.rows,
                    &mut self.cores,
                    &mut self.shells[lane],
                    lane,
                    None,
                );
            }
        }
        for (m, status) in self.shells.iter_mut().zip(self.lane_status) {
            // The unbundled machines carry the gang's current knobs, and
            // a parked lane unbundles into a parked machine carrying the
            // same fault ([`Machine::fault`]).
            m.strict_hazards = self.strict_hazards;
            m.replay_enabled = self.replay_enabled;
            m.tape_invalidated = self.tape_invalidated;
            m.finish_requested = matches!(status, LaneStatus::Finished);
            m.fault = match status {
                LaneStatus::Faulted(e) => Some(e),
                _ => None,
            };
        }
        self.shells
    }

    /// True when the next Vcycle runs the ganged kernel: exactly when the
    /// solo engine would replay it ([`replays_next_vcycle`] for the gang's
    /// knobs, which arm only strict runs). Running lanes are in lockstep,
    /// so one lane's Vcycle count speaks for all.
    fn replays_next_vcycle(&self) -> bool {
        (0..self.lanes).find(|&l| self.running(l)).is_some_and(|l| {
            replays_next_vcycle(
                &self.program,
                self.replay_armed(),
                self.shells[l].counters.vcycles,
            )
        })
    }

    /// The solo fallback: moves one lane's footprint into its shell, steps
    /// the shell one Vcycle on the solo engine, and moves the footprint
    /// back. No instruction, message or display touches a register outside
    /// the footprint, so the shell's words there stay authoritative. A
    /// lane whose step fails stays in its shell, parked where the solo
    /// engine stopped.
    fn step_lane_solo(&mut self, lane: usize) -> Result<(), MachineError> {
        let fp = Footprint::of(&self.program, self.lanes);
        let shell = &mut self.shells[lane];
        shell.strict_hazards = self.strict_hazards;
        shell.replay_enabled = self.replay_enabled;
        shell.tape_invalidated = self.tape_invalidated;
        fp.move_to_shell(&self.rows, &mut self.cores, shell, lane, None);
        let res = shell.step_vcycle();
        if res.is_ok() {
            fp.move_to_rows(&mut self.rows, &mut self.cores, shell, lane);
        }
        res
    }

    /// One ganged Vcycle at row width `W`: fetch/decode each op once,
    /// apply it across the rows with direct commits, then the
    /// pre-resolved epilogue write list. Phase structure and per-lane
    /// architectural effects mirror [`Machine`]'s strict
    /// `run_one_vcycle_uops` exactly — a lane that faults parks with the
    /// state and counters a solo run would have had at the same abort
    /// point. Always inlined, so each [`Kernel`] wrapper compiles its own
    /// copy for its instruction set.
    #[inline(always)]
    fn run_kernel<const W: usize>(&mut self) {
        let GangMachine {
            program,
            lanes,
            rows,
            cores,
            shells,
            lane_status,
            rings_live,
            vc_active,
            parked,
            send_rows,
            ..
        } = self;
        let program = &**program;
        let fp = Footprint::of(program, *lanes);
        debug_assert_eq!(fp.width, W);
        let lanes = fp.lanes;
        let vcycle_len = program.vcycle_len;
        let up = program
            .micro_prog
            .as_ref()
            .expect("replays_next_vcycle checked the micro program");

        vc_active.clear();
        for (l, st) in lane_status.iter().enumerate() {
            if matches!(st, LaneStatus::Running) {
                vc_active.push(l as u32);
            }
        }
        let vcycle = shells[vc_active[0] as usize].counters.vcycles;

        // Every send row is written before the epilogue reads it.
        send_rows.resize(up.sends * W, 0);
        let send_rows = send_rows.as_chunks_mut::<W>().0;
        let rows = rows.as_chunks_mut::<W>().0;

        // Writes left in flight by a solo-engine Vcycle (e.g. each lane's
        // validation Vcycle) commit now, once; no read could have
        // observed them pending.
        if *rings_live {
            for k in 0..fp.cores.len() {
                let block = rows[k * fp.span..(k + 1) * fp.span].as_flattened_mut();
                for &l in vc_active.iter() {
                    let l = l as usize;
                    cores[k * lanes + l].commit_due_strided(block, W, l, u64::MAX);
                }
            }
            *rings_live = false;
        }

        // Body phase: the flat program one core range at a time, one
        // fetch/decode per micro-op, all lanes per op.
        let mut send_cursor = 0usize;
        for span in up.spans.iter().filter(|s| !s.ops.is_empty()) {
            let c = span.core as usize;
            let k = program
                .reg_slot(c)
                .expect("an active core is a footprint core");
            gang_core_walk::<W>(
                program,
                vcycle,
                &mut rows[k * fp.span..(k + 1) * fp.span],
                c * fp.rf,
                &mut cores[k * lanes..(k + 1) * lanes],
                span.ops.clone(),
                shells,
                lane_status,
                vc_active,
                parked,
                send_rows,
                &mut send_cursor,
            );
            // A lane that faulted in this walk already holds this core's
            // registers in its shell; the rest of its footprint follows
            // before any later walk or the epilogue rewrites its columns.
            for l in parked.drain(..) {
                let l = l as usize;
                fp.move_to_shell(rows.as_flattened(), cores, &mut shells[l], l, Some(c));
            }
        }
        debug_assert_eq!(send_cursor, up.sends);

        // Delivery and epilogue collapse into the pre-resolved write list:
        // one row copy per executing slot. Then the frozen counter deltas.
        for e in &up.epi_prog {
            let k = program.reg_slot[e.core as usize] as usize;
            let reg = (e.rd as usize) - e.core as usize * fp.rf;
            rows[k * fp.span + reg] = send_rows[e.send_idx as usize];
        }
        for span in &up.spans {
            let k = program.reg_slot[span.core as usize] as usize;
            for &l in vc_active.iter() {
                cores[k * lanes + l as usize].executed += span.executed;
            }
        }
        for &l in vc_active.iter() {
            let shell = &mut shells[l as usize];
            shell.counters.instructions += up.instructions;
            shell.counters.sends += up.sends as u64;
            shell.counters.messages_delivered += up.sends as u64;
            shell.compute_time += vcycle_len;
            shell.counters.compute_cycles += vcycle_len;
            shell.counters.vcycles += 1;
        }
    }
}

/// `rows[rd] = f(rows[rs1], rows[rs2])` lane by lane, for a folded ALU op
/// of the core whose registers start at absolute index `base`: the two
/// source rows are copied out by value first, so the body is straight-line
/// code with no aliasing through `rows` for the compiler to guard.
#[inline(always)]
fn row2<const W: usize>(rows: &mut [[u32; W]], base: u32, o: Alu3, f: impl Fn(u32, u32) -> u32) {
    let a = rows[(o.rs1 - base) as usize];
    let b = rows[(o.rs2 - base) as usize];
    rows[(o.rd - base) as usize] = lanewise(|k| f(a[k], b[k]));
}

/// The row whose lane `k` is `f(k)`. A plain loop, where
/// `std::array::from_fn` and `<[T; N]>::map` can stay out of line at
/// wide rows: an out-of-line helper is compiled for the baseline ISA,
/// not the kernel's.
#[inline(always)]
fn lanewise<const W: usize>(f: impl Fn(usize) -> u32) -> [u32; W] {
    let mut out = [0; W];
    for (k, word) in out.iter_mut().enumerate() {
        *word = f(k);
    }
    out
}

/// A lane row as a value, with element-wise `!`, `&` and `|`: what the
/// custom-function mux tree runs on to evaluate all `W` lanes at once.
#[derive(Clone, Copy)]
struct Row<const W: usize>([u32; W]);

impl<const W: usize> Not for Row<W> {
    type Output = Row<W>;
    #[inline(always)]
    fn not(self) -> Row<W> {
        Row(lanewise(|k| !self.0[k]))
    }
}

impl<const W: usize> BitAnd for Row<W> {
    type Output = Row<W>;
    #[inline(always)]
    fn bitand(self, rhs: Row<W>) -> Row<W> {
        Row(lanewise(|k| self.0[k] & rhs.0[k]))
    }
}

impl<const W: usize> BitOr for Row<W> {
    type Output = Row<W>;
    #[inline(always)]
    fn bitor(self, rhs: Row<W>) -> Row<W> {
        Row(lanewise(|k| self.0[k] | rhs.0[k]))
    }
}

/// A custom function over four source rows, every lane at once: the
/// bitsliced mux tree with each of its 16 masks broadcast to a row. The
/// masks hold 16 bits, so the result has no carry bit, whatever the
/// sources carry.
#[inline(always)]
pub(crate) fn custom_row<const W: usize>(masks: &[u16; 16], rs: [[u32; W]; 4]) -> [u32; W] {
    let [a, b, c, d] = rs;
    let mut m = [Row([0; W]); 16];
    for (row, &mask) in m.iter_mut().zip(masks) {
        *row = Row([mask as u32; W]);
    }
    custom_mux_tree(&m, Row(a), Row(b), Row(c), Row(d)).0
}

/// The 48-bit global addresses held in three rows' low halves, per lane.
#[inline(always)]
fn global_addr<const W: usize>(rows: &[[u32; W]], rs: [usize; 3], l: usize) -> u64 {
    rs.iter().enumerate().fold(0, |acc, (k, &r)| {
        acc | (rows[r][l] as u64 & 0xffff) << (16 * k)
    })
}

/// Walks one core's range `ops` of the flat micro-op program for one
/// Vcycle at row width `W`: each op is decoded once (its ALU function is
/// its opcode), its absolute operands index the core's rows as `operand −
/// base`, register ops are row operations over all `W` lanes, and every
/// write commits directly (strict hazards, validated), exactly like the
/// solo engine's `uops::run_ops`. Ops with per-lane side effects iterate
/// the running lanes in `vc_active`; `shells` carries each lane's
/// scratchpad, cache, counters, and host events.
///
/// A lane whose `Expect` servicing fails is parked in place: its counters
/// are charged through the faulting op plus the interpreter's other-core
/// counts ([`crate::uops::MicroProgram::fault_counters`]) — the solo
/// engine's abort point — its status records the error, this core's
/// registers move to its shell (from word `base` there), and it drops out
/// of `vc_active` into `parked`, for the caller to move the rest of its
/// footprint before anything else writes its columns.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn gang_core_walk<const W: usize>(
    program: &CompiledProgram,
    vcycle: u64,
    creg: &mut [[u32; W]],
    base: usize,
    cstates: &mut [CoreState],
    ops: Range<usize>,
    shells: &mut [Machine],
    lane_status: &mut [LaneStatus],
    vc_active: &mut Vec<u32>,
    parked: &mut Vec<u32>,
    send_rows: &mut [[u32; W]],
    send_cursor: &mut usize,
) {
    let up = program.micro_prog.as_ref().expect("replaying");
    let sw = program.config.scratch_words;
    let exceptions = &program.exceptions[..];
    let b = base as u32;
    let r = |x: u32| (x - b) as usize;
    for (at, op) in ops.clone().zip(&up.ops[ops]) {
        match *op {
            UOp::Set { rd, imm } => creg[r(rd)] = [imm as u32; W],
            UOp::Add(o) => row2(creg, b, o, |x, y| alu_word(AluOp::Add, x, y)),
            UOp::Sub(o) => row2(creg, b, o, |x, y| alu_word(AluOp::Sub, x, y)),
            UOp::And(o) => row2(creg, b, o, |x, y| alu_word(AluOp::And, x, y)),
            UOp::Or(o) => row2(creg, b, o, |x, y| alu_word(AluOp::Or, x, y)),
            UOp::Xor(o) => row2(creg, b, o, |x, y| alu_word(AluOp::Xor, x, y)),
            UOp::Sll(o) => row2(creg, b, o, |x, y| alu_word(AluOp::Sll, x, y)),
            UOp::Srl(o) => row2(creg, b, o, |x, y| alu_word(AluOp::Srl, x, y)),
            UOp::Sra(o) => row2(creg, b, o, |x, y| alu_word(AluOp::Sra, x, y)),
            UOp::Seq(o) => row2(creg, b, o, |x, y| alu_word(AluOp::Seq, x, y)),
            UOp::Sltu(o) => row2(creg, b, o, |x, y| alu_word(AluOp::Sltu, x, y)),
            UOp::Slts(o) => row2(creg, b, o, |x, y| alu_word(AluOp::Slts, x, y)),
            UOp::Mul(o) => row2(creg, b, o, |x, y| alu_word(AluOp::Mul, x, y)),
            UOp::Mulh(o) => row2(creg, b, o, |x, y| alu_word(AluOp::Mulh, x, y)),
            UOp::AddCarry { rd, rs1, rs2, rsc } => {
                let a = creg[r(rs1)];
                let bb = creg[r(rs2)];
                let cin = creg[r(rsc)];
                creg[r(rd)] = lanewise(|k| {
                    let sum = (a[k] & 0xffff) + (bb[k] & 0xffff) + ((cin[k] >> 16) & 1);
                    (sum as u16) as u32 | (((sum > 0xffff) as u32) << 16)
                });
            }
            UOp::SubBorrow { rd, rs1, rs2, rsb } => {
                let a = creg[r(rs1)];
                let bb = creg[r(rs2)];
                let bin = creg[r(rsb)];
                creg[r(rd)] = lanewise(|k| {
                    let cin = ((bin[k] >> 16) & 1) as i32;
                    let diff = (a[k] as u16) as i32 - (bb[k] as u16) as i32 - (1 - cin);
                    (diff as u16) as u32 | (((diff >= 0) as u32) << 16)
                });
            }
            UOp::Mux { rd, sel, rs1, rs2 } => {
                let s = creg[r(sel)];
                let a = creg[r(rs1)];
                let bb = creg[r(rs2)];
                creg[r(rd)] = lanewise(|k| {
                    let v = if s[k] & 0xffff != 0 { a[k] } else { bb[k] };
                    v & 0xffff
                });
            }
            UOp::Slice {
                rd,
                rs,
                shift,
                mask,
            } => {
                let v = creg[r(rs)];
                creg[r(rd)] = lanewise(|k| (((v[k] as u16) >> shift) & mask) as u32);
            }
            UOp::Custom { rd, func, rs } => {
                let [x, y, z, w] = rs.map(r);
                let rs = [creg[x], creg[y], creg[z], creg[w]];
                creg[r(rd)] = custom_row(&up.custom[func as usize], rs);
            }
            UOp::Predicate { rs, .. } => {
                let row = creg[r(rs)];
                for &l in vc_active.iter() {
                    let l = l as usize;
                    cstates[l].predicate = row[l] as u16 != 0;
                }
            }
            UOp::LocalLoad {
                rd,
                rs_addr,
                base,
                lane,
            } => {
                for &l in vc_active.iter() {
                    let l = l as usize;
                    let a = creg[r(rs_addr)][l] as u16;
                    let addr = lane as usize + (base as usize + a as usize) % sw;
                    creg[r(rd)][l] = shells[l].scratch[addr] as u32;
                }
            }
            UOp::LocalStore {
                rs_data,
                rs_addr,
                base,
                lane,
                ..
            } => {
                let data = creg[r(rs_data)];
                let addrs = creg[r(rs_addr)];
                for &l in vc_active.iter() {
                    let l = l as usize;
                    if cstates[l].predicate {
                        let addr = lane as usize + (base as usize + addrs[l] as u16 as usize) % sw;
                        shells[l].scratch[addr] = data[l] as u16;
                    }
                }
            }
            UOp::GlobalLoad { rd, rs_addr } => {
                let rs = rs_addr.map(r);
                for &l in vc_active.iter() {
                    let l = l as usize;
                    let shell = &mut shells[l];
                    let (v, stall) = shell.cache.load(global_addr(creg, rs, l));
                    shell.counters.stall_cycles += stall;
                    creg[r(rd)][l] = v as u32;
                }
            }
            UOp::GlobalStore { rs_data, rs_addr } => {
                let data = creg[r(rs_data)];
                let rs = rs_addr.map(r);
                for &l in vc_active.iter() {
                    let l = l as usize;
                    if cstates[l].predicate {
                        let shell = &mut shells[l];
                        let stall = shell.cache.store(global_addr(creg, rs, l), data[l] as u16);
                        shell.counters.stall_cycles += stall;
                    }
                }
            }
            UOp::Send { rs } => {
                let v = creg[r(rs)];
                send_rows[*send_cursor] = lanewise(|k| v[k] & 0xffff);
                *send_cursor += 1;
            }
            UOp::Expect { rs1, rs2, eid, .. } => {
                let a = creg[r(rs1)];
                let bb = creg[r(rs2)];
                let mut i = 0;
                while i < vc_active.len() {
                    let l = vc_active[i] as usize;
                    if a[l] as u16 == bb[l] as u16 {
                        i += 1;
                        continue;
                    }
                    let shell = &mut shells[l];
                    let res = service_exception(
                        exceptions,
                        vcycle,
                        |reg: Reg| creg[reg.index()][l] as u16,
                        eid,
                        &mut shell.counters,
                        &mut shell.events,
                    );
                    match res {
                        Ok(()) => i += 1,
                        Err(err) => {
                            // Park the lane where a solo run would have
                            // aborted: counters charged through the
                            // faulting op, no further execution.
                            shell.counters.add(&up.fault_counters(&program.cores, at));
                            cstates[l].executed += at as u64 + 1;
                            let dst = &mut shell.regs[base..base + creg.len()];
                            for (word, row) in dst.iter_mut().zip(creg.iter()) {
                                *word = row[l];
                            }
                            lane_status[l] = LaneStatus::Faulted(err);
                            vc_active.remove(i);
                            parked.push(l as u32);
                        }
                    }
                }
            }
        }
    }
}
