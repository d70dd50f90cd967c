//! The compile-once side of the machine: everything about a loaded design
//! that never changes while it runs.
//!
//! [`CompiledProgram`] is the frozen artifact a [`crate::Machine`] executes:
//! the validated per-core programs, the exception table, the initial
//! register/scratchpad/DRAM images, and — because it is a pure function of
//! the program — the one replay artifact, the [`MicroProgram`] (fused
//! micro-op streams plus pre-resolved epilogue writes). It is immutable
//! after construction and shared behind an `Arc`, so *N* concurrent
//! simulations of the same design (a fleet, a gang, a parameter sweep) pay
//! for validation and micro-op compilation exactly once. No other replay
//! schedule is kept: the delivery schedule the micro-op program is built
//! from is a build-time local. Booting another machine from the artifact
//! ([`crate::Machine::from_program`]) only allocates the mutable per-run
//! state the program can touch: the SoA register file, a scratchpad lane
//! for each core that addresses its scratchpad, pipeline rings whose
//! hazard tables stop at the highest register the program names, the NoC,
//! and the cache.
//!
//! Whether the static schedule is sound is a property of the program too,
//! so it is proven once per program: the first run whose strict
//! validation Vcycle succeeds marks the artifact
//! ([`CompiledProgram::schedule_proven`]), and every later fresh run of it
//! starts on the micro-op engine directly.
//!
//! The split is also what keeps the fast paths honest: nothing a Vcycle
//! executes can scribble on the schedule it is replaying, because the
//! schedule lives on the other side of the `Arc`.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use manticore_isa::{Binary, CoreId, ExceptionDescriptor, Instruction, MachineConfig};

/// Monotonic source of [`CompiledProgram::identity`] values. Starts at 1 so
/// zero can never name a real program.
static NEXT_IDENTITY: AtomicU64 = AtomicU64::new(1);

/// [`CompiledProgram::scratch_lane`] entry of a core without a scratchpad
/// lane.
const NO_LANE: u32 = u32::MAX;

use crate::grid::MachineError;
use crate::uops::MicroProgram;

/// The immutable per-core half of a core: its program and static geometry.
/// The mutable half (pipeline ring, epilogue slots, predicate) lives in
/// `crate::core::CoreState`, one per *run*.
#[derive(Debug)]
pub(crate) struct CoreProgram {
    /// Program body, executed at positions `0..body.len()`.
    pub body: Vec<Instruction>,
    /// Declared number of messages per Vcycle (the epilogue length).
    pub epilogue_len: usize,
    /// Custom-function truth tables (per-lane, 256 bits each) — the
    /// loaded form, kept as the reference.
    pub custom_functions: Vec<[u16; 16]>,
    /// The same tables transposed into bitsliced mask form
    /// (`crate::exec::transpose_custom`), one entry per table: what the
    /// engines actually evaluate through.
    pub custom_masks: Vec<[u16; 16]>,
    /// `custom_masks` broadcast into all four 16-bit slots of a `u64`,
    /// for the gang engine's four-lanes-per-tree evaluation.
    pub custom_masks_x4: Vec<[u64; 16]>,
}

impl CoreProgram {
    /// The body instructions that issue in the first `end` positions of a
    /// Vcycle: `(position, instruction)` for every non-NOP entry, in
    /// position order.
    pub(crate) fn issued(&self, end: u64) -> impl Iterator<Item = (u64, Instruction)> + '_ {
        self.body
            .iter()
            .take(usize::try_from(end).unwrap_or(usize::MAX))
            .enumerate()
            .filter(|(_, i)| !matches!(i, Instruction::Nop))
            .map(|(pos, &i)| (pos as u64, i))
    }
}

/// A design compiled, validated, and frozen for execution: share it behind
/// an [`Arc`] and boot as many [`crate::Machine`]s from it as you like
/// ([`crate::Machine::from_program`]) — each run gets its own mutable
/// state, but the programs and the micro-op program are built once and
/// never copied.
#[derive(Debug)]
pub struct CompiledProgram {
    pub(crate) config: MachineConfig,
    pub(crate) cores: Vec<CoreProgram>,
    pub(crate) exceptions: Vec<ExceptionDescriptor>,
    pub(crate) vcycle_len: u64,
    /// Initial register image for the whole grid, sparse: `(flat SoA
    /// index, value)` for the non-zero words. Booting a run allocates a
    /// zeroed file and applies these. The allocator hands a run the heap
    /// memory an earlier run freed, so the zeroing is a real memset, not
    /// fresh lazily-faulted pages: a dense image would add a copy on top.
    pub(crate) init_regs: Vec<(u32, u32)>,
    /// Initial scratchpad image, sparse like
    /// [`CompiledProgram::init_regs`], indexed into the lane-compacted
    /// scratchpad (`lane * scratch_words + addr`).
    pub(crate) init_scratch: Vec<(u32, u16)>,
    /// Per core (linear index): its scratchpad lane, or [`NO_LANE`]. Only
    /// a core with a `LocalLoad`/`LocalStore` or an `init_scratch` word
    /// gets a lane; no instruction can address the scratchpad of any
    /// other core, so a run allocates `scratch_lanes * scratch_words`
    /// words instead of a whole grid's.
    pub(crate) scratch_lane: Vec<u32>,
    /// Number of allocated scratchpad lanes.
    pub(crate) scratch_lanes: usize,
    /// `scratch_words` zeros: the scratchpad of every core without a lane.
    pub(crate) zero_scratch: Box<[u16]>,
    /// One past the highest register the program names (body operands,
    /// `Send` remote registers, `init_regs`, `$display` arguments). The
    /// per-core hazard tables (`CoreState::inflight`/`last_writer`) stop
    /// here: no write can land above it.
    pub(crate) reg_span: usize,
    /// Linear indices of the cores whose registers some instruction or
    /// message can change (a non-NOP body or an epilogue), ascending. A
    /// gang keeps `reg_span` lane rows for each of these cores and leaves
    /// every other register in its lanes' shells ([`crate::GangMachine`]).
    pub(crate) reg_cores: Vec<u32>,
    /// Per core (linear index): its position in `reg_cores`, or
    /// [`NO_LANE`].
    pub(crate) reg_slot: Vec<u32>,
    /// Set once some run's strict validation Vcycle succeeded. What that
    /// Vcycle proves — link collisions, delivery timing, epilogue
    /// accounting, strict hazards, custom-function slots — depends on the
    /// program alone, never on run data, so every later fresh run may
    /// start on the micro-op engine ([`crate::Machine`]'s `step_vcycle`).
    /// A failed validation never sets it.
    pub(crate) proven: AtomicBool,
    /// Initial DRAM contents, applied to each run's fresh cache.
    pub(crate) init_dram: Vec<(u64, u16)>,
    /// The micro-op program replayed Vcycles run; `None` when the
    /// program's messages cannot be replayed (see
    /// [`MicroProgram::compile`]).
    pub(crate) micro_prog: Option<MicroProgram>,
    /// Process-unique identity of this compilation, minted at
    /// [`CompiledProgram::compile`] time. A [`crate::Checkpoint`] records
    /// the identity of the program it was taken under, and restore/fork
    /// refuse (with [`MachineError::CheckpointMismatch`]) to apply a
    /// snapshot to a machine running any other compilation — even a
    /// byte-identical recompile of the same design, whose micro-op
    /// program could still legitimately differ.
    pub(crate) identity: u64,
}

impl CompiledProgram {
    /// Validates and freezes a compiled binary for `config`.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::Load`] if the binary does not fit the
    /// configuration (grid size, instruction memory, register file,
    /// scratchpad, custom-function slots) or places privileged
    /// instructions on a non-privileged core.
    pub fn compile(
        config: MachineConfig,
        binary: &Binary,
    ) -> Result<CompiledProgram, MachineError> {
        // `CoreId` addresses cores with 8-bit coordinates; a wider/taller
        // grid would silently wrap core ids (`core_id_of` casts to `u8`)
        // and alias distinct cores.
        if config.grid_width > 256 || config.grid_height > 256 {
            return Err(MachineError::Load(format!(
                "{}x{} grid exceeds the 256x256 CoreId addressing limit",
                config.grid_width, config.grid_height
            )));
        }
        if binary.grid_width as usize > config.grid_width
            || binary.grid_height as usize > config.grid_height
        {
            return Err(MachineError::Load(format!(
                "binary compiled for {}x{} grid but machine is {}x{}",
                binary.grid_width, binary.grid_height, config.grid_width, config.grid_height
            )));
        }
        if binary.vcycle_len == 0 {
            return Err(MachineError::Load("vcycle_len must be non-zero".into()));
        }
        let n = config.num_cores();
        let mut cores: Vec<CoreProgram> = (0..n)
            .map(|_| CoreProgram {
                body: Vec::new(),
                epilogue_len: 0,
                custom_functions: Vec::new(),
                custom_masks: Vec::new(),
                custom_masks_x4: Vec::new(),
            })
            .collect();
        let mut init_regs: Vec<(u32, u32)> = Vec::new();
        let mut init_scratch: Vec<(u32, u16)> = Vec::new();
        let mut scratch_lane = vec![NO_LANE; n];
        let mut scratch_lanes = 0usize;
        // One past the highest register named anywhere in the program.
        let mut reg_span = 0usize;
        let mut name_reg = |r: manticore_isa::Reg| reg_span = reg_span.max(r.index() + 1);
        for image in &binary.cores {
            let idx = image.core.linear(config.grid_width);
            if image.core.x as usize >= config.grid_width
                || image.core.y as usize >= config.grid_height
            {
                return Err(MachineError::Load(format!(
                    "core image for {} outside grid",
                    image.core
                )));
            }
            if image.imem_footprint() > config.imem_capacity {
                return Err(MachineError::Load(format!(
                    "{}: program ({} body + {} epilogue) exceeds instruction memory ({})",
                    image.core,
                    image.body.len(),
                    image.epilogue_len,
                    config.imem_capacity
                )));
            }
            if image.custom_functions.len() > config.num_custom_functions {
                return Err(MachineError::Load(format!(
                    "{}: {} custom functions exceed the {} slots",
                    image.core,
                    image.custom_functions.len(),
                    config.num_custom_functions
                )));
            }
            for instr in &image.body {
                if instr.is_privileged() && image.core != CoreId::PRIVILEGED {
                    return Err(MachineError::Load(format!(
                        "privileged instruction {instr:?} on {}",
                        image.core
                    )));
                }
                if let Instruction::Send {
                    target, rd_remote, ..
                } = instr
                {
                    if target.x as usize >= config.grid_width
                        || target.y as usize >= config.grid_height
                    {
                        return Err(MachineError::Load(format!(
                            "{}: Send targets {target} outside the {}x{} grid",
                            image.core, config.grid_width, config.grid_height
                        )));
                    }
                    if rd_remote.index() >= config.regfile_size {
                        return Err(MachineError::Load(format!(
                            "{}: Send remote register {rd_remote} out of range",
                            image.core
                        )));
                    }
                }
                if let Some(rd) = instr.dest() {
                    if rd.index() >= config.regfile_size {
                        return Err(MachineError::Load(format!(
                            "{}: register {rd} out of range",
                            image.core
                        )));
                    }
                    name_reg(rd);
                }
                for rs in instr.sources() {
                    if rs.index() >= config.regfile_size {
                        return Err(MachineError::Load(format!(
                            "{}: source register {rs} out of range",
                            image.core
                        )));
                    }
                    name_reg(rs);
                }
                if let Instruction::Send { rd_remote, .. } = instr {
                    name_reg(*rd_remote);
                }
            }
            let scratch_user = !image.init_scratch.is_empty()
                || image.body.iter().any(|i| {
                    matches!(
                        i,
                        Instruction::LocalLoad { .. } | Instruction::LocalStore { .. }
                    )
                });
            if scratch_user && scratch_lane[idx] == NO_LANE {
                scratch_lane[idx] = scratch_lanes as u32;
                scratch_lanes += 1;
            }
            let core = &mut cores[idx];
            core.body = image.body.clone();
            core.epilogue_len = image.epilogue_len as usize;
            core.custom_functions = image.custom_functions.clone();
            core.custom_masks = image
                .custom_functions
                .iter()
                .map(crate::exec::transpose_custom)
                .collect();
            core.custom_masks_x4 = core
                .custom_masks
                .iter()
                .map(|m| m.map(|x| x as u64 * 0x0001_0001_0001_0001))
                .collect();
            // Last write wins within an image (the dense form's semantics),
            // and only then are the zero entries dropped — an explicit
            // trailing zero must still cancel an earlier nonzero init.
            let mut reg_image: std::collections::BTreeMap<u32, u32> =
                std::collections::BTreeMap::new();
            for &(r, v) in &image.init_regs {
                if r.index() >= config.regfile_size {
                    return Err(MachineError::Load(format!("init reg {r} out of range")));
                }
                reg_image.insert((idx * config.regfile_size + r.index()) as u32, v as u32);
                name_reg(r);
            }
            init_regs.extend(reg_image.into_iter().filter(|&(_, v)| v != 0));
            let mut scratch_image: std::collections::BTreeMap<u32, u16> =
                std::collections::BTreeMap::new();
            for &(a, v) in &image.init_scratch {
                if (a as usize) >= config.scratch_words {
                    return Err(MachineError::Load(format!("init scratch {a} out of range")));
                }
                let lane = scratch_lane[idx] as usize;
                scratch_image.insert((lane * config.scratch_words + a as usize) as u32, v);
            }
            init_scratch.extend(scratch_image.into_iter().filter(|&(_, v)| v != 0));
        }
        for desc in &binary.exceptions {
            if let manticore_isa::ExceptionKind::Display { args, .. } = &desc.kind {
                for &r in args.iter().flat_map(|(regs, _)| regs) {
                    if r.index() >= config.regfile_size {
                        return Err(MachineError::Load(format!(
                            "display argument register {r} out of range"
                        )));
                    }
                    name_reg(r);
                }
            }
        }
        // The micro-op program is a pure function of the loaded program
        // and the configuration, so it is frozen here; a run only *uses*
        // it after a strict validation Vcycle has proven the schedule's
        // assumptions.
        let micro_prog = MicroProgram::compile(&cores, &config, binary.vcycle_len as u64);
        let reg_cores: Vec<u32> = (0..n as u32)
            .filter(|&c| {
                let core = &cores[c as usize];
                core.epilogue_len > 0 || core.body.iter().any(|i| !matches!(i, Instruction::Nop))
            })
            .collect();
        let mut reg_slot = vec![NO_LANE; n];
        for (k, &c) in reg_cores.iter().enumerate() {
            reg_slot[c as usize] = k as u32;
        }
        Ok(CompiledProgram {
            cores,
            exceptions: binary.exceptions.clone(),
            vcycle_len: binary.vcycle_len as u64,
            init_regs,
            init_scratch,
            scratch_lane,
            scratch_lanes,
            zero_scratch: vec![0; config.scratch_words].into_boxed_slice(),
            reg_span,
            reg_cores,
            reg_slot,
            proven: AtomicBool::new(false),
            init_dram: binary.init_dram.clone(),
            micro_prog,
            config,
            identity: NEXT_IDENTITY.fetch_add(1, Ordering::Relaxed),
        })
    }

    /// Like [`CompiledProgram::compile`], wrapped in the [`Arc`] every
    /// sharing consumer ([`crate::Machine::from_program`], a fleet) wants.
    ///
    /// # Errors
    ///
    /// See [`CompiledProgram::compile`].
    pub fn compile_shared(
        config: MachineConfig,
        binary: &Binary,
    ) -> Result<Arc<CompiledProgram>, MachineError> {
        Ok(Arc::new(Self::compile(config, binary)?))
    }

    /// The machine configuration the program was compiled for.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// True once some run's strict validation Vcycle of this program
    /// succeeded: every later fresh run trusts that proof and starts on
    /// the micro-op engine (when replay is armed).
    pub fn schedule_proven(&self) -> bool {
        // Relaxed: the flag guards no data — the program it vouches for
        // is immutable and already visible to every run holding the Arc.
        self.proven.load(Ordering::Relaxed)
    }

    /// Records a successful strict validation Vcycle (see
    /// [`CompiledProgram::schedule_proven`]).
    pub(crate) fn mark_proven(&self) {
        self.proven.store(true, Ordering::Relaxed);
    }

    /// Core `idx`'s range of the lane-compacted scratchpad; empty for a
    /// core without a lane (it has no instruction that addresses it), whose
    /// scratchpad reads as [`CompiledProgram::zero_scratch`].
    #[inline]
    pub(crate) fn scratch_range(&self, idx: usize) -> Range<usize> {
        match self.scratch_lane[idx] {
            NO_LANE => 0..0,
            lane => {
                let sw = self.config.scratch_words;
                lane as usize * sw..(lane as usize + 1) * sw
            }
        }
    }

    /// One past the highest register the program names: the size of each
    /// run's per-core hazard tables.
    pub(crate) fn reg_span(&self) -> usize {
        self.reg_span
    }

    /// A core's position in `reg_cores` (its gang row block), if any
    /// instruction or message can change its registers.
    pub(crate) fn reg_slot(&self, idx: usize) -> Option<usize> {
        match self.reg_slot[idx] {
            NO_LANE => None,
            k => Some(k as usize),
        }
    }

    /// Machine cycles per Vcycle (the compiler's VCPL).
    pub fn vcycle_len(&self) -> u64 {
        self.vcycle_len
    }

    /// Number of cores in the configured grid.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// Process-unique identity of this compilation: the key a
    /// [`crate::Checkpoint`] is bound to.
    pub fn identity(&self) -> u64 {
        self.identity
    }

    /// True when a micro-op program exists for this program (see
    /// [`crate::Machine::set_replay`]).
    pub fn replayable(&self) -> bool {
        self.micro_prog.is_some()
    }

    /// Approximate resident size of this frozen artifact in bytes: the
    /// per-core program bodies and custom-function tables, the sparse
    /// boot images, and the micro-op program. This is an
    /// accounting figure for caches that bound themselves by bytes (the
    /// simulation service's compiled-program cache evicts by it), not an
    /// allocator-exact measurement — it deliberately ignores per-`Vec`
    /// overhead and padding, which are noise at the scale of real
    /// programs.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let mut bytes = size_of::<CompiledProgram>();
        for core in &self.cores {
            bytes += core.body.len() * size_of::<Instruction>();
            // The three custom-function forms: loaded, bitsliced, x4.
            bytes += core.custom_functions.len() * size_of::<[u16; 16]>();
            bytes += core.custom_masks.len() * size_of::<[u16; 16]>();
            bytes += core.custom_masks_x4.len() * size_of::<[u64; 16]>();
        }
        bytes += self.exceptions.len() * size_of::<ExceptionDescriptor>();
        bytes += self.init_regs.len() * size_of::<(u32, u32)>();
        bytes += self.init_scratch.len() * size_of::<(u32, u16)>();
        bytes += self.scratch_lane.len() * size_of::<u32>();
        bytes += self.zero_scratch.len() * size_of::<u16>();
        bytes += self.init_dram.len() * size_of::<(u64, u16)>();
        if let Some(prog) = &self.micro_prog {
            bytes += prog.approx_bytes();
        }
        bytes
    }

    /// Micro-op stream statistics, when a micro program exists:
    /// `(micro_ops, fused_pairs)` summed over the grid. `fused_pairs`
    /// counts adjacent instruction pairs fused into a single dispatch.
    pub fn micro_op_stats(&self) -> Option<(usize, usize)> {
        self.micro_prog
            .as_ref()
            .map(|p| (p.streams.iter().map(Vec::len).sum::<usize>(), p.fused_pairs))
    }
}
