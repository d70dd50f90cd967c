//! The machine itself: lockstep execution of the core grid, Vcycle framing,
//! global stall, host exception servicing.
//!
//! Machine state is structure-of-arrays: one contiguous `Vec<u32>` holds
//! every core's register file and one contiguous `Vec<u16>` the
//! scratchpad of every core whose program addresses one, sliced into
//! per-core lanes (`CoreView`) for execution. The layout keeps the hot
//! replay paths walking adjacent memory.
//!
//! Two engines step a Vcycle, and [`replays_next_vcycle`] picks one: the
//! position-by-position interpreter, which validates, checks hazards and
//! models stale reads, and the micro-op engine ([`crate::uops`]), which
//! replays proven strict Vcycles with direct register commits. Permissive
//! runs never arm replay ([`replay_armed`]), so the interpreter is the one
//! reference for stale-read semantics.

use std::fmt;
use std::sync::Arc;

use manticore_isa::{Binary, CoreId, MachineConfig, Reg};
use manticore_util::hash::{fnv_prime_pow, FNV_OFFSET, FNV_PRIME};

use crate::cache::{Cache, CacheStats};
use crate::core::{CoreState, CoreView};
use crate::exec::{core_id_of, step_core, ExecEnv, SendRecord};
use crate::noc::{Message, Noc};
use crate::program::CompiledProgram;
use crate::uops::run_core_uops;

/// Mixes `words` (each mapped through `value`) into fingerprint state
/// `h`, one FNV step per word, folding every run of zero values into one
/// multiply by `PRIME^run`. Blocks of 16 are tested for all-zero first,
/// so a mostly-zero slice costs a vectorizable OR per block.
fn mix_words<T: Copy>(mut h: u64, words: &[T], value: impl Fn(T) -> u64) -> u64 {
    let mut zeros = 0u64;
    for block in words.chunks(16) {
        if block.iter().fold(0, |acc, &w| acc | value(w)) == 0 {
            zeros += block.len() as u64;
            continue;
        }
        for &w in block {
            let v = value(w);
            if v == 0 {
                zeros += 1;
                continue;
            }
            if zeros > 0 {
                h = h.wrapping_mul(fnv_prime_pow(zeros));
                zeros = 0;
            }
            h = (h ^ v).wrapping_mul(FNV_PRIME);
        }
    }
    h.wrapping_mul(fnv_prime_pow(zeros))
}

/// Hardware performance counters (§7.7 uses these for the global-stall
/// experiment).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PerfCounters {
    /// Compute-domain cycles (the compute clock was running).
    pub compute_cycles: u64,
    /// Cycles the compute clock was gated off (cache accesses, exceptions).
    pub stall_cycles: u64,
    /// Virtual cycles completed.
    pub vcycles: u64,
    /// Non-NOP instructions executed, summed over cores.
    pub instructions: u64,
    /// `Send` instructions executed.
    pub sends: u64,
    /// Messages delivered into epilogue slots.
    pub messages_delivered: u64,
    /// Exceptions serviced by the host.
    pub exceptions: u64,
}

impl PerfCounters {
    /// Total machine cycles: compute + stall.
    pub fn total_cycles(&self) -> u64 {
        self.compute_cycles + self.stall_cycles
    }

    /// Adds `other`'s counts to these.
    pub(crate) fn add(&mut self, other: &PerfCounters) {
        self.compute_cycles += other.compute_cycles;
        self.stall_cycles += other.stall_cycles;
        self.vcycles += other.vcycles;
        self.instructions += other.instructions;
        self.sends += other.sends;
        self.messages_delivered += other.messages_delivered;
        self.exceptions += other.exceptions;
    }

    /// Fraction of time the grid was stalled.
    pub fn stall_fraction(&self) -> f64 {
        if self.total_cycles() == 0 {
            0.0
        } else {
            self.stall_cycles as f64 / self.total_cycles() as f64
        }
    }
}

/// A host-visible event produced during execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HostEvent {
    /// A `$display` fired (already rendered).
    Display(String),
    /// `$finish` was requested.
    Finish,
}

/// Why a run stopped early at a Vcycle boundary without an error: a
/// cooperative interrupt, observed by the engines between Vcycles (see
/// [`Machine::set_cancel_token`] / [`Machine::set_deadline`]). The machine
/// state is consistent — the run can be checkpointed or resumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interrupt {
    /// The attached [`manticore_util::CancelToken`] tripped.
    Cancelled,
    /// The attached wall-clock deadline passed.
    Deadline,
}

/// Outcome of a [`Machine::run_vcycles`] call.
#[derive(Debug, Clone, Default)]
pub struct RunOutcome {
    /// Vcycles actually simulated (may be fewer than requested if the
    /// design finished).
    pub vcycles_run: u64,
    /// True if a `$finish` fired.
    pub finished: bool,
    /// Rendered `$display` output in order.
    pub displays: Vec<String>,
    /// `Some` when the run stopped early on a cooperative interrupt
    /// (cancellation or deadline) rather than finishing or exhausting its
    /// Vcycle budget.
    pub interrupted: Option<Interrupt>,
}

/// Errors: load-time validation failures and runtime determinism
/// violations. Determinism violations indicate compiler bugs — on the real
/// hardware they would silently corrupt the simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MachineError {
    /// Binary does not fit or refers to resources outside the configuration.
    Load(String),
    /// An instruction read a register with an uncommitted in-flight write
    /// (the compiler failed to schedule around the pipeline latency).
    Hazard {
        /// Core that executed the read.
        core: CoreId,
        /// Position within the Vcycle.
        position: u64,
        /// The register read too early.
        reg: Reg,
    },
    /// Two messages claimed the same NoC link in the same cycle; the
    /// bufferless switch would drop one.
    LinkCollision {
        /// Description of the contended link.
        link: String,
        /// Position within the Vcycle.
        position: u64,
    },
    /// A message arrived after the PC had already passed its epilogue slot.
    LateMessage {
        /// Receiving core.
        core: CoreId,
        /// Epilogue slot index.
        slot: usize,
    },
    /// More messages arrived in one Vcycle than the core's declared
    /// epilogue length.
    EpilogueOverflow {
        /// Receiving core.
        core: CoreId,
    },
    /// Fewer messages arrived than the epilogue expects (a `Set` slot would
    /// execute garbage).
    MissingMessages {
        /// Receiving core.
        core: CoreId,
        /// Messages received.
        got: usize,
        /// Messages expected.
        expected: usize,
    },
    /// An epilogue slot reached instruction issue before its scheduled
    /// message arrived (strict mode): the hardware would execute a stale
    /// `SET`. Permissive mode keeps the treat-as-NOP behaviour and reports
    /// the shortfall as [`MachineError::MissingMessages`] at the wrap.
    MissingScheduledMessage {
        /// Receiving core.
        core: CoreId,
        /// Epilogue slot index.
        slot: usize,
        /// Position within the Vcycle at which the empty slot issued.
        position: u64,
    },
    /// A non-privileged core executed a privileged instruction.
    NotPrivileged {
        /// Offending core.
        core: CoreId,
    },
    /// An assertion (`Expect` with an `AssertFail` descriptor) failed.
    AssertFailed {
        /// The assertion message.
        message: String,
        /// Vcycle at which it failed.
        vcycle: u64,
    },
    /// An `Expect` raised an exception id absent from the binary's table.
    UnknownException {
        /// The raised id.
        eid: u16,
    },
    /// A [`crate::Checkpoint`] was restored onto (or forked against) a
    /// machine running a different [`crate::CompiledProgram`] than the one
    /// the snapshot was taken under. The target machine is left untouched.
    CheckpointMismatch {
        /// Identity of the program the checkpoint belongs to.
        expected: u64,
        /// Identity of the program the target machine runs.
        got: u64,
    },
    /// A fork requested an invalid lane count: zero, or wider than
    /// [`crate::MAX_LANES`]. Unlike [`crate::GangMachine::from_program`],
    /// which clamps, a fork is an explicit scenario-tree edge and a silent
    /// resize would corrupt the tree's bookkeeping.
    ForkWidth {
        /// The requested lane count.
        requested: usize,
    },
    /// A spurious fault planted by the fault-injection plane
    /// ([`Machine::inject_fault`], `manticore_fleet`'s `FaultPlan`). Real
    /// execution never produces this variant, so a harness can always tell
    /// injected failures from genuine determinism violations.
    Injected {
        /// Vcycle boundary the fault was planted at.
        vcycle: u64,
    },
    /// The host-side worker driving this job panicked; the job's state was
    /// discarded. Produced by the fleet's panic isolation, never by the
    /// machine itself.
    WorkerPanic {
        /// The panic payload, when it was a string.
        message: String,
    },
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::Load(m) => write!(f, "load error: {m}"),
            MachineError::Hazard { core, position, reg } => write!(
                f,
                "data hazard: {core} read {reg} with an in-flight write at Vcycle position {position}"
            ),
            MachineError::LinkCollision { link, position } => {
                write!(f, "NoC collision on {link} at Vcycle position {position}")
            }
            MachineError::LateMessage { core, slot } => {
                write!(f, "message for {core} epilogue slot {slot} arrived late")
            }
            MachineError::EpilogueOverflow { core } => {
                write!(f, "epilogue overflow at {core}")
            }
            MachineError::MissingMessages { core, got, expected } => write!(
                f,
                "{core} received {got} messages but expects {expected} per Vcycle"
            ),
            MachineError::MissingScheduledMessage { core, slot, position } => write!(
                f,
                "{core} epilogue slot {slot} issued at Vcycle position {position} before its scheduled message arrived"
            ),
            MachineError::NotPrivileged { core } => {
                write!(f, "privileged instruction on non-privileged {core}")
            }
            MachineError::AssertFailed { message, vcycle } => {
                write!(f, "assertion failed at Vcycle {vcycle}: {message}")
            }
            MachineError::UnknownException { eid } => {
                write!(f, "unknown exception id {eid}")
            }
            MachineError::CheckpointMismatch { expected, got } => write!(
                f,
                "checkpoint belongs to program #{expected} but the machine runs program #{got}"
            ),
            MachineError::ForkWidth { requested } => write!(
                f,
                "fork width {requested} outside 1..={} lanes",
                crate::MAX_LANES
            ),
            MachineError::Injected { vcycle } => {
                write!(f, "injected fault at Vcycle {vcycle}")
            }
            MachineError::WorkerPanic { message } => {
                write!(f, "worker panicked: {message}")
            }
        }
    }
}

impl std::error::Error for MachineError {}

/// The Manticore machine: one *run* of a compiled design.
///
/// The immutable side — validated per-core programs, exception table,
/// initial state images, the micro-op program replayed Vcycles run —
/// lives in a shared [`CompiledProgram`] behind an [`Arc`];
/// a `Machine` owns only the mutable run state (SoA register file and
/// scratchpad, pipeline rings, NoC, cache, counters). Booting additional
/// machines from the same artifact ([`Machine::from_program`]) is cheap
/// and embarrassingly parallel, which is what the fleet engine exploits.
#[derive(Debug)]
pub struct Machine {
    /// The shared compile-once artifact this run executes.
    pub(crate) program: Arc<CompiledProgram>,
    pub(crate) cores: Vec<CoreState>,
    /// Structure-of-arrays register file for the whole grid:
    /// `regfile_size` consecutive words per core, linear core order.
    pub(crate) regs: Vec<u32>,
    /// Structure-of-arrays scratchpad: `scratch_words` consecutive words
    /// per scratchpad lane, in lane order. Only cores whose program can
    /// address a scratchpad have a lane ([`CompiledProgram`]'s lane
    /// table, `scratch_range`); every other core's scratchpad reads as
    /// zeros.
    pub(crate) scratch: Vec<u16>,
    pub(crate) noc: Noc,
    pub(crate) cache: Cache,
    pub(crate) compute_time: u64,
    pub(crate) counters: PerfCounters,
    pub(crate) strict_hazards: bool,
    pub(crate) finish_requested: bool,
    pub(crate) events: Vec<HostEvent>,
    /// Whether the validate-once / replay-many fast path may be used once
    /// the validation Vcycle has completed.
    pub(crate) replay_enabled: bool,
    /// True after [`Machine::set_strict_hazards`] re-armed hazard checks a
    /// permissive validation Vcycle never proved: the shared micro-op
    /// lowering stays in the program (other runs may still use it), but
    /// *this* run must stay on the interpreter.
    pub(crate) tape_invalidated: bool,
    /// Reusable per-Vcycle scratch: `Send` records collected during a body
    /// phase. Hoisted onto the machine so the hot Vcycle loops allocate
    /// nothing per Vcycle.
    pub(crate) send_buf: Vec<SendRecord>,
    /// Reusable per-Vcycle scratch: micro-op engine send values.
    pub(crate) send_vals_buf: Vec<u16>,
    /// Reusable per-position scratch: messages due at one compute cycle
    /// (the interpreter's `take_due` scan).
    pub(crate) due_buf: Vec<Message>,
    /// The first error this run hit, recorded so a faulted machine keeps
    /// reporting it instead of re-executing from corrupt-adjacent state
    /// (and so the fleet can classify a resumed faulted job without
    /// running it).
    pub(crate) fault: Option<MachineError>,
    /// Cooperative run control (cancellation token, wall-clock deadline).
    /// Boxed behind an `Option` so the common uncontrolled run pays one
    /// null check per Vcycle and nothing else.
    pub(crate) control: Option<Box<RunControl>>,
}

/// Cooperative controls checked at Vcycle boundaries. Host-side only:
/// never part of the architectural state, never captured by checkpoints.
#[derive(Debug, Default, Clone)]
pub(crate) struct RunControl {
    pub(crate) cancel: Option<manticore_util::CancelToken>,
    pub(crate) deadline: Option<std::time::Instant>,
}

impl Machine {
    /// Boots a machine from a compiled binary: freezes the program
    /// ([`CompiledProgram::compile`]) and allocates fresh run state.
    ///
    /// To run the same binary many times, freeze once and share it:
    /// [`CompiledProgram::compile_shared`] + [`Machine::from_program`].
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::Load`] if the binary does not fit the
    /// configuration (grid size, instruction memory, register file,
    /// scratchpad, custom-function slots) or places privileged
    /// instructions on a non-privileged core.
    pub fn load(config: MachineConfig, binary: &Binary) -> Result<Machine, MachineError> {
        Ok(Machine::from_program(Arc::new(CompiledProgram::compile(
            config, binary,
        )?)))
    }

    /// Whether a fresh boot replays proven Vcycles ([`Machine::set_replay`]).
    pub const DEFAULT_REPLAY: bool = true;

    /// Whether a fresh boot checks hazards strictly
    /// ([`Machine::set_strict_hazards`]).
    pub const DEFAULT_STRICT_HAZARDS: bool = true;

    /// Boots a fresh run of an already-frozen program: allocates the
    /// mutable state the program can touch (SoA register file, the
    /// scratchpad lanes of the cores that address one, pipeline rings
    /// with hazard tables up to the program's highest register, NoC,
    /// cache), applies the initial images, and shares everything else.
    pub fn from_program(program: Arc<CompiledProgram>) -> Machine {
        let config = &program.config;
        let cores = program
            .cores
            .iter()
            .map(|p| CoreState::new(program.reg_span(), config.hazard_latency, p.epilogue_len))
            .collect();
        let mut cache = Cache::new(config.cache);
        for &(a, v) in &program.init_dram {
            cache.write_dram(a, v);
        }
        // Zeroed allocations plus the sparse init images. The zeroing is
        // a memset of reused heap memory, so its size is the boot cost:
        // that is why the scratchpad and the hazard tables are sized to
        // the program's footprint rather than the grid.
        let mut regs = vec![0u32; program.cores.len() * config.regfile_size];
        for &(i, v) in &program.init_regs {
            regs[i as usize] = v;
        }
        let mut scratch = vec![0u16; program.scratch_lanes * config.scratch_words];
        for &(i, v) in &program.init_scratch {
            scratch[i as usize] = v;
        }
        Machine {
            noc: Noc::new(config),
            cache,
            cores,
            regs,
            scratch,
            compute_time: 0,
            counters: PerfCounters::default(),
            strict_hazards: Machine::DEFAULT_STRICT_HAZARDS,
            finish_requested: false,
            events: Vec::new(),
            replay_enabled: Machine::DEFAULT_REPLAY,
            tape_invalidated: false,
            send_buf: Vec::new(),
            send_vals_buf: Vec::new(),
            due_buf: Vec::new(),
            fault: None,
            control: None,
            program,
        }
    }

    /// The shared compile-once artifact this run executes — clone the
    /// `Arc` to boot more runs of the same design.
    pub fn program(&self) -> &Arc<CompiledProgram> {
        &self.program
    }

    /// Boots from the serialized byte form (the bootloader path).
    ///
    /// # Errors
    ///
    /// Propagates deserialization and load failures.
    pub fn boot_from_bytes(config: MachineConfig, bytes: &[u8]) -> Result<Machine, MachineError> {
        let binary = Binary::from_bytes(bytes).map_err(MachineError::Load)?;
        Machine::load(config, &binary)
    }

    /// Disables strict hazard checking: premature reads return stale data
    /// (what the real pipeline would do) instead of erroring. Used by
    /// failure-injection tests.
    ///
    /// Permissive runs execute every Vcycle on the interpreter, the one
    /// engine that models stale reads: the micro-op engine commits writes
    /// directly, which only a strict run may do ([`Machine::replay_armed`]).
    /// *Enabling* strictness disarms replay *for the rest of this run*: it
    /// re-arms hazard checks a permissive validation Vcycle never proved,
    /// and only the interpreter runs those checks. (The micro-op program
    /// lives in the shared [`CompiledProgram`] and stays available to
    /// other runs.)
    pub fn set_strict_hazards(&mut self, strict: bool) {
        if strict && !self.strict_hazards {
            self.tape_invalidated = true;
        }
        self.strict_hazards = strict;
    }

    /// Enables or disables the validate-once / replay-many fast path.
    ///
    /// Replay is enabled by default and is architecturally invisible: after
    /// a first Vcycle validates the static schedule (link collisions,
    /// delivery timing, epilogue accounting — once per program, see
    /// [`CompiledProgram::schedule_proven`]), Vcycles execute the fused
    /// micro-op stream, which skips NOPs, empty tail positions, and all
    /// per-position NoC bookkeeping — bit-identical results, measurably
    /// faster. Disable it to run the position-by-position interpreter, the
    /// reference the micro-op engine is tested against.
    pub fn set_replay(&mut self, enabled: bool) {
        self.replay_enabled = enabled;
    }

    /// Whether the replay fast path may be used (see [`Machine::set_replay`]).
    pub fn replay_enabled(&self) -> bool {
        self.replay_enabled
    }

    /// Micro-op stream statistics for the loaded program, when one exists
    /// and is usable by this run: `(micro_ops, fused_pairs)` summed over
    /// the grid. `fused_pairs` counts adjacent instruction pairs fused
    /// into a single dispatch. `None` while the stream cannot arm whatever
    /// [`Machine::set_replay`] says — permissive hazards, strictness
    /// re-enabled after a permissive start, or a static cross-Vcycle
    /// hazard.
    pub fn micro_op_stats(&self) -> Option<(usize, usize)> {
        if !replay_armed(
            &self.program,
            true,
            self.tape_invalidated,
            self.strict_hazards,
        ) {
            return None;
        }
        self.program.micro_op_stats()
    }

    /// True when post-validation Vcycles of this run execute the micro-op
    /// engine: replay is enabled, hazards are strict, the program has a
    /// micro-op program, and no check the micro-ops cannot run is armed
    /// (strictness re-enabled after a permissive start, or a static
    /// cross-Vcycle hazard). Otherwise every Vcycle runs on the
    /// interpreter.
    pub fn replay_armed(&self) -> bool {
        replay_armed(
            &self.program,
            self.replay_enabled,
            self.tape_invalidated,
            self.strict_hazards,
        )
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.program.config
    }

    /// Machine cycles per Vcycle (the compiler's VCPL).
    pub fn vcycle_len(&self) -> u64 {
        self.program.vcycle_len
    }

    /// Performance counters accumulated so far.
    pub fn counters(&self) -> PerfCounters {
        self.counters
    }

    /// Cache statistics.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// This core's register-file lane of the SoA grid state.
    #[inline]
    pub(crate) fn reg_lane(&self, idx: usize) -> &[u32] {
        let rf = self.program.config.regfile_size;
        &self.regs[idx * rf..(idx + 1) * rf]
    }

    /// Reads a register as the host sees it at a Vcycle boundary (with
    /// in-flight writes applied).
    pub fn read_reg(&self, core: CoreId, reg: Reg) -> u16 {
        let idx = core.linear(self.program.config.grid_width);
        self.cores[idx].reg_value_flushed(self.reg_lane(idx), reg)
    }

    /// Overwrites a register's architectural value — the way a fleet job
    /// plants its per-run input vector before the first Vcycle, and a
    /// scenario fork diverges its children before resuming. Writes go to
    /// the committed register file, and any write still in the pipeline
    /// ring (a resumed run can carry one across the Vcycle boundary) is
    /// rewritten to the poked value, so the poke takes effect before the
    /// first (re)executed Vcycle and is never clobbered by a pre-poke
    /// value committing later — identical semantics to a fresh run.
    pub fn poke_reg(&mut self, core: CoreId, reg: Reg, value: u16) {
        let config = &self.program.config;
        let idx = core.linear(config.grid_width);
        self.regs[idx * config.regfile_size + reg.index()] = value as u32;
        self.cores[idx].override_pending(reg.0, value);
    }

    /// Reads a scratchpad word (zero on a core whose program never
    /// addresses its scratchpad).
    pub fn read_scratch(&self, core: CoreId, addr: usize) -> u16 {
        self.core_scratch(core)[addr]
    }

    /// One core's whole scratchpad as a slice — the bulk form of
    /// [`Machine::read_scratch`], for state fingerprinting. Always
    /// `scratch_words` long: a core without a scratchpad lane reads as
    /// zeros.
    pub fn core_scratch(&self, core: CoreId) -> &[u16] {
        let lane = self
            .program
            .scratch_range(core.linear(self.program.config.grid_width));
        if lane.is_empty() {
            &self.program.zero_scratch
        } else {
            &self.scratch[lane]
        }
    }

    /// Reads a global-memory word (through the coherent host view).
    pub fn read_global(&self, addr: u64) -> u16 {
        self.cache.peek(addr)
    }

    /// Core `idx`'s register file as the host sees it, split at the
    /// core's hazard-table span: an iterator over the flushed values of
    /// registers `0..span` (a write may still be in flight there), and
    /// the committed words of registers `span..`, whose low 16 bits are
    /// the host view — no write can be in flight above the span.
    pub(crate) fn flushed_regs(&self, idx: usize) -> (impl Iterator<Item = u16> + '_, &[u32]) {
        let cs = &self.cores[idx];
        let lane = self.reg_lane(idx);
        let (below, above) = lane.split_at(cs.inflight.len().min(lane.len()));
        let flushed = below
            .iter()
            .enumerate()
            .map(move |(r, &word)| cs.reg_value_flushed_word(word, r));
        (flushed, above)
    }

    /// An FNV-1a fingerprint of the run's full architectural state at a
    /// Vcycle boundary: the seven performance counters, every register of
    /// every core through the flushed host view ([`Machine::read_reg`]),
    /// every scratchpad word, and the finished flag. Two runs of one
    /// program are bit-identical exactly when their fingerprints agree —
    /// the summary the simulation service returns per job so a client (or
    /// the differential test suites) can hold a served result against a
    /// direct run without shipping megabytes of state.
    ///
    /// Each word is one FNV step `h = (h ^ word) * PRIME`, so a zero word
    /// is a bare multiply and a run of `k` of them one multiply by
    /// `PRIME^k`. The cost follows the program's footprint: registers
    /// above the hazard span and scratch lanes fold their zero runs, and
    /// a core without a scratchpad costs one multiply — the value is the
    /// same as mixing every word in turn.
    pub fn state_fingerprint(&self) -> u64 {
        let mix = |h: u64, v: u64| (h ^ v).wrapping_mul(FNV_PRIME);
        let c = self.counters();
        let mut h = [
            c.compute_cycles,
            c.stall_cycles,
            c.vcycles,
            c.instructions,
            c.sends,
            c.messages_delivered,
            c.exceptions,
        ]
        .into_iter()
        .fold(FNV_OFFSET, mix);
        let laneless = fnv_prime_pow(self.program.config.scratch_words as u64);
        // Linear core order is row-major, the order the host view walks.
        for idx in 0..self.program.num_cores() {
            let (flushed, above) = self.flushed_regs(idx);
            h = flushed.fold(h, |h, v| mix(h, v as u64));
            h = mix_words(h, above, |w| w as u16 as u64);
            let lane = self.program.scratch_range(idx);
            h = if lane.is_empty() {
                h.wrapping_mul(laneless)
            } else {
                mix_words(h, &self.scratch[lane], u64::from)
            };
        }
        mix(h, self.finished() as u64)
    }

    /// Attaches (or with `None` detaches) a cooperative cancellation
    /// token: every engine polls it between Vcycles and stops with
    /// [`RunOutcome::interrupted`] = [`Interrupt::Cancelled`] once it
    /// trips. Host-side control only — never captured by checkpoints.
    pub fn set_cancel_token(&mut self, token: Option<manticore_util::CancelToken>) {
        self.control_mut().cancel = token;
        self.trim_control();
    }

    /// Attaches (or with `None` detaches) a wall-clock deadline: every
    /// engine polls it between Vcycles and stops with
    /// [`RunOutcome::interrupted`] = [`Interrupt::Deadline`] once it
    /// passes. A deadline already in the past stops the run before its
    /// first Vcycle, deterministically.
    pub fn set_deadline(&mut self, deadline: Option<std::time::Instant>) {
        self.control_mut().deadline = deadline;
        self.trim_control();
    }

    fn control_mut(&mut self) -> &mut RunControl {
        self.control.get_or_insert_with(Box::default)
    }

    /// Drops the control block again when both knobs are off, restoring
    /// the zero-cost (single null check) uncontrolled fast path.
    fn trim_control(&mut self) {
        if self
            .control
            .as_ref()
            .is_some_and(|c| c.cancel.is_none() && c.deadline.is_none())
        {
            self.control = None;
        }
    }

    /// The interrupt the next Vcycle boundary would observe, if any.
    /// Cancellation wins over an expired deadline (it is the stronger,
    /// caller-initiated signal).
    #[inline]
    pub(crate) fn check_interrupt(&self) -> Option<Interrupt> {
        let ctl = self.control.as_deref()?;
        if ctl.cancel.as_ref().is_some_and(|t| t.is_cancelled()) {
            return Some(Interrupt::Cancelled);
        }
        if ctl.deadline.is_some_and(|d| std::time::Instant::now() >= d) {
            return Some(Interrupt::Deadline);
        }
        None
    }

    /// True once `$finish` fired: further [`Machine::run_vcycles`] calls
    /// return immediately with zero Vcycles run.
    pub fn finished(&self) -> bool {
        self.finish_requested
    }

    /// The error that aborted this run, if any. A faulted machine is
    /// parked: [`Machine::run_vcycles`] keeps returning the recorded error
    /// without executing further Vcycles.
    pub fn fault(&self) -> Option<&MachineError> {
        self.fault.as_ref()
    }

    /// Plants `err` as this run's fault: the next [`Machine::run_vcycles`]
    /// call reports it without executing. The fault-injection plane's
    /// entry point (spurious [`MachineError::Injected`] faults), also
    /// usable to park a machine deliberately.
    pub fn inject_fault(&mut self, err: MachineError) {
        if self.fault.is_none() {
            self.fault = Some(err);
        }
    }

    /// Runs up to `max_vcycles` virtual cycles on the calling thread.
    ///
    /// # Errors
    ///
    /// Any determinism violation or assertion failure aborts the run and
    /// parks the machine: the error is recorded ([`Machine::fault`]) and
    /// re-reported by subsequent calls without executing further Vcycles —
    /// mirroring a parked gang lane.
    pub fn run_vcycles(&mut self, max_vcycles: u64) -> Result<RunOutcome, MachineError> {
        if let Some(err) = &self.fault {
            return Err(err.clone());
        }
        let mut outcome = RunOutcome::default();
        for _ in 0..max_vcycles {
            if self.finish_requested {
                break;
            }
            if let Some(stop) = self.check_interrupt() {
                outcome.interrupted = Some(stop);
                break;
            }
            if let Err(e) = self.step_vcycle() {
                self.requeue_displays(outcome.displays);
                self.fault = Some(e.clone());
                return Err(e);
            }
            outcome.vcycles_run += 1;
            self.drain_events(&mut outcome);
            if outcome.finished {
                self.finish_requested = true;
                break;
            }
        }
        Ok(outcome)
    }

    /// Executes exactly one Vcycle on the micro-op engine or the
    /// interpreter, as [`replays_next_vcycle`] picks. Shared by
    /// [`Machine::run_vcycles`] and the gang engine's per-lane fallback
    /// ([`crate::gang`]), so lane-at-a-time execution cannot drift from a
    /// solo run.
    pub(crate) fn step_vcycle(&mut self) -> Result<(), MachineError> {
        if replays_next_vcycle(&self.program, self.replay_armed(), self.counters.vcycles) {
            self.run_one_vcycle_uops()
        } else {
            self.run_one_vcycle()
        }
    }

    /// Puts displays already drained into a partial outcome back at the
    /// front of the event queue, so a failed multi-Vcycle run does not
    /// lose the output that fired before the failure (it stays available
    /// via [`Machine::drain_pending_displays`]). Public for drivers that
    /// slice a budget across several `run_vcycles` calls (the fleet's
    /// fault-injection plane) and hit an error mid-slice.
    pub fn requeue_displays(&mut self, displays: Vec<String>) {
        if displays.is_empty() {
            return;
        }
        self.events
            .splice(0..0, displays.into_iter().map(HostEvent::Display));
    }

    /// Moves pending host events into `outcome` at a Vcycle boundary.
    fn drain_events(&mut self, outcome: &mut RunOutcome) {
        for ev in self.events.drain(..) {
            match ev {
                HostEvent::Display(s) => outcome.displays.push(s),
                HostEvent::Finish => outcome.finished = true,
            }
        }
    }

    /// Drains `$display` lines queued by a Vcycle that subsequently
    /// failed. On success [`Machine::run_vcycles`] delivers displays
    /// through [`RunOutcome`] and this returns nothing; after an error it
    /// yields the output that fired before the failure (and clears it, so
    /// it cannot leak into a later run's outcome).
    pub fn drain_pending_displays(&mut self) -> Vec<String> {
        self.events
            .drain(..)
            .filter_map(|ev| match ev {
                HostEvent::Display(s) => Some(s),
                HostEvent::Finish => None,
            })
            .collect()
    }

    fn run_one_vcycle(&mut self) -> Result<(), MachineError> {
        // Validate link-level NoC behaviour only on the first Vcycle: the
        // compute domain is deterministic and the program periodic, so the
        // link pattern repeats exactly.
        let validate = self.counters.vcycles == 0;
        let program = Arc::clone(&self.program);
        let config = &program.config;
        let rf = config.regfile_size;
        let env = ExecEnv {
            config,
            exceptions: &program.exceptions,
            strict_hazards: self.strict_hazards,
            vcycle: self.counters.vcycles,
        };
        // Reusable per-Vcycle scratch (error paths abandon the buffers;
        // an aborted run never executes another Vcycle that would miss
        // them).
        let mut sends = std::mem::take(&mut self.send_buf);
        let mut due = std::mem::take(&mut self.due_buf);
        sends.clear();
        due.clear();
        for pos in 0..program.vcycle_len {
            let now = self.compute_time;
            // Deliver due messages before issue so a slot filled at cycle t
            // is executable at cycle t.
            self.noc.take_due_into(now, &mut due);
            for msg in due.drain(..) {
                let idx = msg.target.linear(config.grid_width);
                let core = &mut self.cores[idx];
                match core.receive(msg.rd, msg.value) {
                    None => return Err(MachineError::EpilogueOverflow { core: msg.target }),
                    Some(slot) => {
                        // The PC must not have passed the slot yet.
                        if pos > (program.cores[idx].body.len() + slot) as u64 {
                            return Err(MachineError::LateMessage {
                                core: msg.target,
                                slot,
                            });
                        }
                    }
                }
                self.counters.messages_delivered += 1;
            }
            for idx in 0..self.cores.len() {
                let mut view = CoreView {
                    cs: &mut self.cores[idx],
                    prog: &program.cores[idx],
                    regs: &mut self.regs[idx * rf..(idx + 1) * rf],
                    scratch: &mut self.scratch[program.scratch_range(idx)],
                };
                view.commit_due(now);
                let core_id = core_id_of(idx, config.grid_width);
                let cache = (core_id == CoreId::PRIVILEGED).then_some(&mut self.cache);
                step_core(
                    &env,
                    &mut view,
                    core_id,
                    pos,
                    now,
                    cache,
                    &mut self.counters,
                    &mut self.events,
                    &mut sends,
                )?;
                // Serial semantics: a recorded send enters the NoC
                // immediately, before the next core issues.
                for s in sends.drain(..) {
                    self.noc
                        .send(s.from, s.target, s.rd, s.value, now, pos, validate)
                        .map_err(|c| MachineError::LinkCollision {
                            link: c.link,
                            position: c.position,
                        })?;
                }
            }
            self.compute_time += 1;
            self.counters.compute_cycles += 1;
        }
        // Vcycle wrap: every expected message must have arrived.
        for (idx, core) in self.cores.iter_mut().enumerate() {
            let expected = program.cores[idx].epilogue_len;
            if core.received != expected {
                return Err(MachineError::MissingMessages {
                    core: core_id_of(idx, config.grid_width),
                    got: core.received,
                    expected,
                });
            }
            core.wrap_vcycle();
        }
        self.counters.vcycles += 1;
        self.send_buf = sends;
        self.due_buf = due;
        if validate {
            // Only the validation Vcycle reads the link reservations, so
            // they are dead from here on; dropping them leaves a validated
            // run in exactly the state of a run that trusted the proof.
            self.noc.reservations = Default::default();
            if self.strict_hazards {
                program.mark_proven();
            }
        }
        Ok(())
    }

    /// One Vcycle on the fused micro-op stream (see [`crate::uops`]) —
    /// also a fresh run's first Vcycle once its program's schedule is
    /// proven ([`replays_next_vcycle`]).
    ///
    /// The strict validation Vcycle proved the static schedule's
    /// assumptions, so this path skips NOP positions, idle-tail positions,
    /// the per-position `take_due` scan, all link bookkeeping and the
    /// pipeline ring: a core-major walk of pre-resolved micro-ops over the
    /// active cores with direct register commits, counters accumulated in
    /// bulk, then the pre-resolved epilogue write list. Core-major order
    /// is invisible because cores only interact through the (frozen)
    /// delivery schedule, and the only *fallible* micro-ops are the
    /// privileged core's `Expect`s, so error selection matches the
    /// interpreter's encounter order too.
    pub(crate) fn run_one_vcycle_uops(&mut self) -> Result<(), MachineError> {
        let Machine {
            program,
            cores,
            regs,
            scratch,
            cache,
            compute_time,
            counters,
            events,
            send_vals_buf,
            ..
        } = self;
        let config = &program.config;
        let vcycle_len = program.vcycle_len;
        let up = program
            .micro_prog
            .as_ref()
            .expect("replay_armed checked the micro program");
        let rf = config.regfile_size;
        let sw = config.scratch_words;
        let vcycle = counters.vcycles;

        // Body phase: fused micro-ops, active cores only. The value buffer
        // is the machine's reusable scratch — no per-Vcycle allocation.
        let send_vals = send_vals_buf;
        send_vals.clear();
        send_vals.reserve(up.sends);
        for &idx in &up.active {
            let idx = idx as usize;
            let mut view = CoreView {
                cs: &mut cores[idx],
                prog: &program.cores[idx],
                regs: &mut regs[idx * rf..(idx + 1) * rf],
                scratch: &mut scratch[program.scratch_range(idx)],
            };
            // The privileged core is linear index 0 ((0,0) row-major).
            let cache_arg = (idx == 0).then_some(&mut *cache);
            if let Err((pos, e)) = run_core_uops(
                &program.exceptions,
                vcycle,
                sw,
                &mut view,
                &up.streams[idx],
                cache_arg,
                counters,
                events,
                send_vals,
            ) {
                counters.add(&up.fault_counters(&program.cores, pos));
                return Err(e);
            }
        }
        debug_assert_eq!(send_vals.len(), up.sends);

        // Delivery and epilogue collapse into the pre-resolved write list:
        // `(core, slot)` order, direct commits (nothing can observe them
        // in flight), bulk counters.
        counters.messages_delivered += up.sends as u64;
        for e in &up.epi_prog {
            regs[e.core as usize * rf + e.rd as usize] = send_vals[e.send_idx as usize] as u32;
        }
        for &idx in &up.active {
            let idx = idx as usize;
            let epi = up.epi_exec[idx] as u64;
            cores[idx].executed += epi;
            counters.instructions += epi;
        }

        *compute_time += vcycle_len;
        counters.compute_cycles += vcycle_len;
        counters.vcycles += 1;
        Ok(())
    }
}

/// Whether replay is armed for a run with these knobs: see
/// [`Machine::replay_armed`], which the gang engine mirrors through this
/// same function. The micro-op engine commits every write directly, which
/// only a strict run may do, so permissive runs are never armed.
pub(crate) fn replay_armed(
    program: &CompiledProgram,
    enabled: bool,
    invalidated: bool,
    strict: bool,
) -> bool {
    enabled
        && strict
        && !invalidated
        && program.micro_prog.as_ref().is_some_and(|p| !p.cross_hazard)
}

/// The one engine choice for a run's next Vcycle, shared by the solo and
/// gang engines: the micro-op engine when replay is `armed` and the static
/// schedule is proven — by this run's own validation Vcycle (`vcycles >
/// 0`), or by an earlier run of the program, since what validation checks
/// depends on the program alone ([`CompiledProgram::schedule_proven`]).
/// Everything else runs on the position-by-position interpreter.
pub(crate) fn replays_next_vcycle(program: &CompiledProgram, armed: bool, vcycles: u64) -> bool {
    armed && (vcycles > 0 || program.schedule_proven())
}

/// Utilization report: executed instructions per core (for Fig. 9-style
/// breakdowns measured on the machine rather than predicted).
impl Machine {
    /// Executed (non-NOP) instruction count for every core, row-major.
    pub fn executed_per_core(&self) -> Vec<u64> {
        self.cores.iter().map(|c| c.executed).collect()
    }
}
