//! The flat Vcycle program: the replay engine.
//!
//! In Manticore's static BSP model the cores never synchronise inside a
//! Vcycle; they meet only at the barrier, where the epilogue delivers the
//! messages. Once a strict validation Vcycle has proven a program's static
//! schedule ([`crate::replay`]), a Vcycle is therefore one straight-line
//! program over the whole grid, and this module freezes it as one: a
//! [`MicroProgram`] holds a single core-major [`UOp`] array for every core
//! of the machine, with
//!
//! - **no idle positions**: only the non-NOP positions inside the Vcycle,
//!   so a core whose body is ten instructions in a 400-cycle Vcycle costs
//!   ten steps, not 400;
//! - **absolute operands**: every register field is an index into the
//!   machine's whole register file (`core * regfile_size + reg`), a
//!   scratchpad access carries its core's lane, and custom functions are
//!   resolved into one program-wide table, so walking from one core's ops
//!   into the next core's needs no per-core setup;
//! - **the ALU function in the opcode**: one [`UOp`] variant per
//!   [`AluOp`], so every op costs exactly one dispatch;
//! - **direct commits, no hazard checks**: the strict validation Vcycle
//!   proved no read ever observes an in-flight write, so the checks are
//!   dead and a delayed write is indistinguishable from an immediate one:
//!   every write commits at once and there is no pipeline ring. Permissive
//!   runs, where stale reads are real, stay on the interpreter, the one
//!   reference for stale-read semantics;
//! - **frozen counter deltas**: the instructions, sends and per-core
//!   `executed` counts a Vcycle adds never change, so they are program
//!   constants ([`MicroProgram::instructions`], [`CoreSpan::executed`]).
//!   Only the privileged core (linear index 0, first in the array) can
//!   fault or touch the cache; a faulting walk is charged through
//!   [`MicroProgram::fault_counters`], which makes its counters the
//!   interpreter's bit for bit.
//!
//! `examples/pair_histogram.rs` prints the inputs of the walk's cost
//! model: the op mix, the ALU-function mix, and each design's active cores
//! and ops per Vcycle.
//!
//! The [`MicroProgram`] is a pure function of the loaded program, built
//! once when the program is frozen into a [`CompiledProgram`] (the
//! artifact's one replay structure, shared by every run of it) and used
//! by the solo replay path ([`run_ops`], called from [`crate::grid`]) and
//! the gang kernel, which walks the same array one core range at a time,
//! strictly after a strict validation Vcycle of the program succeeded (in
//! this run or an earlier one). The delivery schedule it is built from
//! ([`crate::replay`]) is a build-time local; only what a replayed Vcycle
//! and its error path read is kept.

use std::ops::Range;

use manticore_isa::{AluOp, ExceptionDescriptor, Instruction};

use crate::cache::Cache;
use crate::core::CoreState;
use crate::exec::service_exception;
use crate::grid::{HostEvent, MachineError, PerfCounters};
use crate::program::{CompiledProgram, CoreProgram};
use crate::replay::{self, Delivery};

/// The operands of a folded ALU op, `rd = f(rs1, rs2)`, as absolute
/// register-file indices.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Alu3 {
    pub rd: u32,
    pub rs1: u32,
    pub rs2: u32,
}

/// One pre-resolved micro-op. Register fields are absolute register-file
/// indices (`core * regfile_size + reg`).
#[derive(Debug, Clone, Copy)]
pub(crate) enum UOp {
    Set {
        rd: u32,
        imm: u16,
    },
    // ---- ALU, one opcode per `AluOp` ----
    Add(Alu3),
    Sub(Alu3),
    And(Alu3),
    Or(Alu3),
    Xor(Alu3),
    Sll(Alu3),
    Srl(Alu3),
    Sra(Alu3),
    Seq(Alu3),
    Sltu(Alu3),
    Slts(Alu3),
    Mul(Alu3),
    Mulh(Alu3),
    AddCarry {
        rd: u32,
        rs1: u32,
        rs2: u32,
        rsc: u32,
    },
    SubBorrow {
        rd: u32,
        rs1: u32,
        rs2: u32,
        rsb: u32,
    },
    Mux {
        rd: u32,
        sel: u32,
        rs1: u32,
        rs2: u32,
    },
    /// `rd = (rs >> shift) & mask`; the mask is precomputed from the
    /// width, so the per-step width check of the interpreter is gone.
    Slice {
        rd: u32,
        rs: u32,
        shift: u8,
        mask: u16,
    },
    /// `func` indexes [`MicroProgram::custom`].
    Custom {
        rd: u32,
        func: u16,
        rs: [u32; 4],
    },
    /// Sets core `core`'s store predicate.
    Predicate {
        core: u32,
        rs: u32,
    },
    /// `rd = scratch[lane + (base + rs_addr) % scratch_words]`: `lane` is
    /// the core's first word of the lane-compacted scratchpad.
    LocalLoad {
        rd: u32,
        rs_addr: u32,
        base: u32,
        lane: u32,
    },
    /// The store of [`UOp::LocalLoad`]'s word, when core `core`'s
    /// predicate is set.
    LocalStore {
        core: u32,
        rs_data: u32,
        rs_addr: u32,
        base: u32,
        lane: u32,
    },
    GlobalLoad {
        rd: u32,
        rs_addr: [u32; 3],
    },
    GlobalStore {
        rs_data: u32,
        rs_addr: [u32; 3],
    },
    /// Record this Vcycle's value of `rs`; routing lives in the frozen
    /// delivery schedule.
    Send {
        rs: u32,
    },
    /// `pos` is the op's Vcycle position, what a fault is charged by
    /// ([`MicroProgram::fault_counters`]).
    Expect {
        rs1: u32,
        rs2: u32,
        eid: u16,
        pos: u32,
    },
}

/// One executing epilogue slot, pre-resolved: write `send_vals[send_idx]`
/// into absolute register `rd`, which belongs to core `core`. Ordered
/// `(core, slot)`, the serial epilogue walk order, so repeated
/// destinations overwrite identically.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EpiEntry {
    pub core: u32,
    pub rd: u32,
    pub send_idx: u32,
}

/// A core that executes something every Vcycle: its range of
/// [`MicroProgram::ops`] and the `executed` count a Vcycle adds to it.
#[derive(Debug, Clone)]
pub(crate) struct CoreSpan {
    pub core: u32,
    pub ops: Range<usize>,
    /// Its ops plus its executing epilogue slots.
    pub executed: u64,
}

/// The compiled micro-op program for a whole machine: everything a
/// replayed Vcycle and its error path read.
#[derive(Debug)]
pub(crate) struct MicroProgram {
    /// Every core's micro-ops, core-major in linear core order (so the
    /// privileged core's come first), positions ascending within a core.
    pub ops: Vec<UOp>,
    /// The cores with at least one op or executing epilogue slot, in
    /// linear order; every other core is architecturally inert every
    /// Vcycle.
    pub spans: Vec<CoreSpan>,
    /// Instructions per Vcycle over the grid: every op plus every
    /// executing epilogue slot.
    pub instructions: u64,
    /// `Send`s per Vcycle. Every message is delivered inside the Vcycle
    /// (no program is compiled otherwise), so this is also the number of
    /// messages delivered per Vcycle.
    pub sends: usize,
    /// The executing epilogue slots, pre-resolved to direct register
    /// writes.
    pub epi_prog: Vec<EpiEntry>,
    /// Per core: how many epilogue slots actually issue (slots whose
    /// position `body_len + slot` falls inside the Vcycle).
    pub epi_exec: Vec<usize>,
    /// Every message's delivery position, ascending: what
    /// [`MicroProgram::fault_counters`] counts delivered messages by.
    pub deliver_at: Vec<u32>,
    /// Every core's custom-function masks (the bitsliced form of
    /// `crate::exec::transpose_custom`), concatenated in core order:
    /// what [`UOp::Custom`]'s `func` indexes.
    pub custom: Vec<[u16; 16]>,
    /// True if some register written near the Vcycle end is read early
    /// enough in the next Vcycle to observe the write still in flight.
    /// This is a static property (`write pos + hazard latency >
    /// vcycle_len + read pos`, all constants), and when it holds strict
    /// mode must keep runtime hazard checks — such a run stays on the
    /// interpreter, which reports the exact error. No compiled workload
    /// exhibits it; the flag exists so the fast path cannot silently
    /// change semantics.
    pub cross_hazard: bool,
}

/// Where one core's ops land in the flat program: its register base, its
/// scratchpad lane and its slice of the custom-function table.
struct Site {
    core: u32,
    base: u32,
    lane: u32,
    custom: Range<u32>,
}

/// Lowers the instruction at Vcycle position `pos` of the core at `site`
/// to its micro-op, or `None` for a custom function the core never
/// programmed (such a program faults in its validation Vcycle and never
/// replays) or one past the `u16` index of the program-wide table.
fn lower(pos: u64, instr: Instruction, site: &Site) -> Option<UOp> {
    let r = |reg: manticore_isa::Reg| site.base + reg.0 as u32;
    Some(match instr {
        Instruction::Nop => unreachable!("issued positions hold no NOPs"),
        Instruction::Set { rd, imm } => UOp::Set { rd: r(rd), imm },
        Instruction::Alu { op, rd, rs1, rs2 } => {
            let o = Alu3 {
                rd: r(rd),
                rs1: r(rs1),
                rs2: r(rs2),
            };
            match op {
                AluOp::Add => UOp::Add(o),
                AluOp::Sub => UOp::Sub(o),
                AluOp::And => UOp::And(o),
                AluOp::Or => UOp::Or(o),
                AluOp::Xor => UOp::Xor(o),
                AluOp::Sll => UOp::Sll(o),
                AluOp::Srl => UOp::Srl(o),
                AluOp::Sra => UOp::Sra(o),
                AluOp::Seq => UOp::Seq(o),
                AluOp::Sltu => UOp::Sltu(o),
                AluOp::Slts => UOp::Slts(o),
                AluOp::Mul => UOp::Mul(o),
                AluOp::Mulh => UOp::Mulh(o),
            }
        }
        Instruction::AddCarry {
            rd,
            rs1,
            rs2,
            rs_carry,
        } => UOp::AddCarry {
            rd: r(rd),
            rs1: r(rs1),
            rs2: r(rs2),
            rsc: r(rs_carry),
        },
        Instruction::SubBorrow {
            rd,
            rs1,
            rs2,
            rs_borrow,
        } => UOp::SubBorrow {
            rd: r(rd),
            rs1: r(rs1),
            rs2: r(rs2),
            rsb: r(rs_borrow),
        },
        Instruction::Mux {
            rd,
            rs_sel,
            rs1,
            rs2,
        } => UOp::Mux {
            rd: r(rd),
            sel: r(rs_sel),
            rs1: r(rs1),
            rs2: r(rs2),
        },
        Instruction::Slice {
            rd,
            rs,
            offset,
            width,
        } => UOp::Slice {
            rd: r(rd),
            rs: r(rs),
            shift: offset,
            mask: if width >= 16 {
                0xffff
            } else {
                (1u16 << width) - 1
            },
        },
        Instruction::Custom { rd, func, rs } => {
            let func = site.custom.start + u32::from(func);
            if !site.custom.contains(&func) {
                return None;
            }
            UOp::Custom {
                rd: r(rd),
                func: u16::try_from(func).ok()?,
                rs: rs.map(r),
            }
        }
        Instruction::Predicate { rs } => UOp::Predicate {
            core: site.core,
            rs: r(rs),
        },
        Instruction::LocalLoad { rd, rs_addr, base } => UOp::LocalLoad {
            rd: r(rd),
            rs_addr: r(rs_addr),
            base: base as u32,
            lane: site.lane,
        },
        Instruction::LocalStore {
            rs_data,
            rs_addr,
            base,
        } => UOp::LocalStore {
            core: site.core,
            rs_data: r(rs_data),
            rs_addr: r(rs_addr),
            base: base as u32,
            lane: site.lane,
        },
        Instruction::GlobalLoad { rd, rs_addr } => UOp::GlobalLoad {
            rd: r(rd),
            rs_addr: rs_addr.map(r),
        },
        Instruction::GlobalStore { rs_data, rs_addr } => UOp::GlobalStore {
            rs_data: r(rs_data),
            rs_addr: rs_addr.map(r),
        },
        Instruction::Send { rs, .. } => UOp::Send { rs: r(rs) },
        Instruction::Expect { rs1, rs2, eid } => UOp::Expect {
            rs1: r(rs1),
            rs2: r(rs2),
            eid,
            pos: pos as u32,
        },
    })
}

impl MicroProgram {
    /// Approximate heap footprint of the compiled program, in bytes. An
    /// accounting figure for cache budgeting, not an allocator-exact
    /// measurement.
    pub(crate) fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        size_of::<Self>()
            + self.ops.len() * size_of::<UOp>()
            + self.spans.len() * size_of::<CoreSpan>()
            + self.epi_prog.len() * size_of::<EpiEntry>()
            + self.epi_exec.len() * size_of::<usize>()
            + self.deliver_at.len() * size_of::<u32>()
            + self.custom.len() * size_of::<[u16; 16]>()
    }

    /// Compiles a loaded program into the flat micro-op array and
    /// pre-resolved epilogue writes, or `None` when its messages cannot be
    /// replayed (see [`replay::deliveries`]), a custom function it calls
    /// was never programmed, or its register file or custom-function
    /// table outgrows the op's index widths.
    pub fn compile(program: &CompiledProgram) -> Option<MicroProgram> {
        let cores = &program.cores;
        let config = &program.config;
        let vcycle_len = program.vcycle_len;
        let rf = config.regfile_size;
        // Every absolute register index must fit an op's `u32` field.
        u32::try_from(cores.len().checked_mul(rf)?).ok()?;
        let deliveries = replay::deliveries(cores, config, vcycle_len)?;
        let epi_exec: Vec<usize> = cores
            .iter()
            .map(|c| (vcycle_len.saturating_sub(c.body.len() as u64) as usize).min(c.epilogue_len))
            .collect();

        let mut ops = Vec::new();
        let mut spans = Vec::new();
        let mut custom: Vec<[u16; 16]> = Vec::new();
        for (idx, core) in cores.iter().enumerate() {
            let start = ops.len();
            let custom_at = custom.len() as u32;
            custom.extend_from_slice(&core.custom_masks);
            let site = Site {
                core: idx as u32,
                base: (idx * rf) as u32,
                lane: u32::try_from(program.scratch_range(idx).start).ok()?,
                custom: custom_at..custom.len() as u32,
            };
            for (pos, instr) in core.issued(vcycle_len) {
                ops.push(lower(pos, instr, &site)?);
            }
            let executed = (ops.len() - start + epi_exec[idx]) as u64;
            if executed > 0 {
                spans.push(CoreSpan {
                    core: idx as u32,
                    ops: start..ops.len(),
                    executed,
                });
            }
        }

        // Executing epilogue slots, pre-resolved. Delivery order per
        // target is slot order (slots are assigned sequentially), so a
        // stable sort by core reproduces the serial `(core, slot)` walk.
        let mut epi_prog: Vec<EpiEntry> = deliveries
            .iter()
            .filter(|d| (d.slot as usize) < epi_exec[d.target as usize])
            .map(|d| EpiEntry {
                core: d.target,
                rd: (d.target as usize * rf + d.rd.index()) as u32,
                send_idx: d.send_idx,
            })
            .collect();
        epi_prog.sort_by_key(|e| e.core);

        Some(MicroProgram {
            cross_hazard: cross_boundary_hazard(
                cores,
                &deliveries,
                &epi_exec,
                vcycle_len,
                config.hazard_latency as u64,
            ),
            instructions: spans.iter().map(|s| s.executed).sum(),
            sends: deliveries.len(),
            deliver_at: deliveries.iter().map(|d| d.deliver_at).collect(),
            custom,
            ops,
            spans,
            epi_prog,
            epi_exec,
        })
    }

    /// The counts the position-major interpreter has added to a Vcycle by
    /// the time the privileged core faults at op `at` of [`Self::ops`]
    /// (an `Expect` at body position `pos`): the privileged core's ops and
    /// sends through `at`, every other core's body instructions and sends
    /// before `pos`, the epilogue slots that issued before `pos`, the
    /// messages delivered at or before `pos`, and `pos` compute cycles.
    /// The privileged core's `executed` grows by its ops through `at`,
    /// `at + 1`.
    ///
    /// The micro-op engines walk core-major and the privileged core
    /// (linear index 0, the only core that can fault) first, and charge a
    /// Vcycle's frozen deltas only when it completes; adding this makes
    /// their error-path [`PerfCounters`] the interpreter's. A cold path:
    /// it rescans the other cores' bodies.
    pub(crate) fn fault_counters(&self, cores: &[CoreProgram], at: usize) -> PerfCounters {
        let UOp::Expect { pos, .. } = self.ops[at] else {
            unreachable!("only an Expect faults");
        };
        let pos = pos as u64;
        let walked = &self.ops[..=at];
        let mut c = PerfCounters {
            compute_cycles: pos,
            instructions: walked.len() as u64,
            sends: walked
                .iter()
                .filter(|op| matches!(op, UOp::Send { .. }))
                .count() as u64,
            ..PerfCounters::default()
        };
        for core in &cores[1..] {
            for (_, instr) in core.issued(pos) {
                c.instructions += 1;
                c.sends += matches!(instr, Instruction::Send { .. }) as u64;
            }
        }
        for (core, &epi) in cores.iter().zip(&self.epi_exec) {
            let issued = pos.saturating_sub(core.body.len() as u64) as usize;
            c.instructions += epi.min(issued) as u64;
        }
        c.messages_delivered = self.deliver_at.partition_point(|&d| d as u64 <= pos) as u64;
        c
    }
}

/// True if any register write near the Vcycle end (`pos + lat >
/// vcycle_len`, body or epilogue) is read by the same core early enough
/// in the next Vcycle (`read pos < write pos + lat - vcycle_len`) to
/// observe the write in flight. Registers are core-local, so the check is
/// per core; everything involved is static. See
/// [`MicroProgram::cross_hazard`].
fn cross_boundary_hazard(
    cores: &[CoreProgram],
    deliveries: &[Delivery],
    epi_exec: &[usize],
    vcycle_len: u64,
    lat: u64,
) -> bool {
    // Per-core per-register end of the stale window in next-Vcycle
    // positions: a read at `pos < window` observes the pending write.
    let mut windows: Vec<std::collections::HashMap<u16, u64>> =
        vec![Default::default(); cores.len()];
    let mut any = false;
    for (idx, core) in cores.iter().enumerate() {
        for (pos, instr) in core.issued(vcycle_len) {
            if let Some(rd) = instr.dest() {
                let end = (pos + lat).saturating_sub(vcycle_len);
                if end > 0 {
                    let w = windows[idx].entry(rd.0).or_insert(0);
                    *w = (*w).max(end);
                    any = true;
                }
            }
        }
    }
    for d in deliveries {
        let idx = d.target as usize;
        if (d.slot as usize) < epi_exec[idx] {
            let pos = cores[idx].body.len() as u64 + d.slot as u64;
            let end = (pos + lat).saturating_sub(vcycle_len);
            if end > 0 {
                let w = windows[idx].entry(d.rd.0).or_insert(0);
                *w = (*w).max(end);
                any = true;
            }
        }
    }
    if !any {
        return false;
    }
    for (idx, core) in cores.iter().enumerate() {
        if windows[idx].is_empty() {
            continue;
        }
        // Windows never extend past `lat - 1`.
        for (pos, instr) in core.issued(vcycle_len.min(lat)) {
            for src in instr.sources() {
                if let Some(&end) = windows[idx].get(&src.0) {
                    if pos < end {
                        return true;
                    }
                }
            }
        }
    }
    false
}

/// One ALU operation on two *register words* (value in the low 16 bits,
/// carry in bit 16 — the storage format of every engine's register file),
/// returning the full result word including its carry bit.
///
/// This is [`AluOp::eval`] re-expressed over u32 words, so each folded
/// ALU opcode is a single branch-light integer expression: `Add`'s
/// carry-out lands in bit 16 by plain 17-bit arithmetic, `Sub`'s
/// no-borrow bit falls out of `(a | 0x1_0000) - b`. Called with a constant
/// `op` in every arm, it folds to that one expression, which the gang's
/// row operations vectorize across lanes. Bit-equivalence with `eval` (for
/// every op and any carry bits on the inputs) is pinned by
/// `alu_word_matches_eval` in the machine test suite.
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

/// `regs[rd] = f(regs[rs1], regs[rs2])`.
#[inline(always)]
fn alu(regs: &mut [u32], o: Alu3, f: impl Fn(u32, u32) -> u32) {
    regs[o.rd as usize] = f(regs[o.rs1 as usize], regs[o.rs2 as usize]);
}

/// The 48-bit global address held in three registers' low halves.
#[inline(always)]
fn global_addr(regs: &[u32], rs: [u32; 3]) -> u64 {
    rs.iter().enumerate().fold(0, |acc, (k, &r)| {
        acc | (regs[r as usize] as u64 & 0xffff) << (16 * k)
    })
}

/// Walks `ops` once, the body phase of one replayed solo Vcycle over the
/// machine's whole state, committing every register write directly. That
/// is legal because replay runs only on strict-validated programs without
/// a cross-boundary hazard, where no read can observe a write in flight:
/// the delayed and the immediate write are indistinguishable to every
/// architectural observer. The caller drains every pipeline ring before a
/// walk that follows an interpreted Vcycle.
///
/// Nothing is counted here: the caller charges the program's frozen
/// deltas once the walk completes. Only the privileged core, whose ops
/// come first, can fault (`Expect`) or touch the cache and its stall
/// counter; a fault comes back with the index of the faulting op, for
/// [`MicroProgram::fault_counters`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_ops(
    up: &MicroProgram,
    exceptions: &[ExceptionDescriptor],
    vcycle: u64,
    sw: usize,
    regs: &mut [u32],
    scratch: &mut [u16],
    cores: &mut [CoreState],
    cache: &mut Cache,
    counters: &mut PerfCounters,
    events: &mut Vec<HostEvent>,
    send_vals: &mut Vec<u16>,
) -> Result<(), (usize, MachineError)> {
    for (at, op) in up.ops.iter().enumerate() {
        match *op {
            UOp::Set { rd, imm } => regs[rd as usize] = imm as u32,
            UOp::Add(o) => alu(regs, o, |a, b| alu_word(AluOp::Add, a, b)),
            UOp::Sub(o) => alu(regs, o, |a, b| alu_word(AluOp::Sub, a, b)),
            UOp::And(o) => alu(regs, o, |a, b| alu_word(AluOp::And, a, b)),
            UOp::Or(o) => alu(regs, o, |a, b| alu_word(AluOp::Or, a, b)),
            UOp::Xor(o) => alu(regs, o, |a, b| alu_word(AluOp::Xor, a, b)),
            UOp::Sll(o) => alu(regs, o, |a, b| alu_word(AluOp::Sll, a, b)),
            UOp::Srl(o) => alu(regs, o, |a, b| alu_word(AluOp::Srl, a, b)),
            UOp::Sra(o) => alu(regs, o, |a, b| alu_word(AluOp::Sra, a, b)),
            UOp::Seq(o) => alu(regs, o, |a, b| alu_word(AluOp::Seq, a, b)),
            UOp::Sltu(o) => alu(regs, o, |a, b| alu_word(AluOp::Sltu, a, b)),
            UOp::Slts(o) => alu(regs, o, |a, b| alu_word(AluOp::Slts, a, b)),
            UOp::Mul(o) => alu(regs, o, |a, b| alu_word(AluOp::Mul, a, b)),
            UOp::Mulh(o) => alu(regs, o, |a, b| alu_word(AluOp::Mulh, a, b)),
            UOp::AddCarry { rd, rs1, rs2, rsc } => {
                let a = regs[rs1 as usize] & 0xffff;
                let b = regs[rs2 as usize] & 0xffff;
                let cin = (regs[rsc as usize] >> 16) & 1;
                let sum = a + b + cin;
                regs[rd as usize] = (sum as u16) as u32 | ((sum > 0xffff) as u32) << 16;
            }
            UOp::SubBorrow { rd, rs1, rs2, rsb } => {
                let a = (regs[rs1 as usize] as u16) as i32;
                let b = (regs[rs2 as usize] as u16) as i32;
                let cin = ((regs[rsb as usize] >> 16) & 1) as i32;
                let diff = a - b - (1 - cin);
                regs[rd as usize] = (diff as u16) as u32 | ((diff >= 0) as u32) << 16;
            }
            UOp::Mux { rd, sel, rs1, rs2 } => {
                let v = if regs[sel as usize] as u16 != 0 {
                    regs[rs1 as usize]
                } else {
                    regs[rs2 as usize]
                };
                regs[rd as usize] = v & 0xffff;
            }
            UOp::Slice {
                rd,
                rs,
                shift,
                mask,
            } => {
                let v = regs[rs as usize] as u16;
                regs[rd as usize] = ((v >> shift) & mask) as u32;
            }
            UOp::Custom { rd, func, rs } => {
                let [a, b, c, d] = rs.map(|r| regs[r as usize] as u16);
                let out = crate::exec::custom_mux_tree(&up.custom[func as usize], a, b, c, d);
                regs[rd as usize] = out as u32;
            }
            UOp::Predicate { core, rs } => {
                cores[core as usize].predicate = regs[rs as usize] as u16 != 0;
            }
            UOp::LocalLoad {
                rd,
                rs_addr,
                base,
                lane,
            } => {
                let a = regs[rs_addr as usize] as u16;
                let addr = lane as usize + (base as usize + a as usize) % sw;
                regs[rd as usize] = scratch[addr] as u32;
            }
            UOp::LocalStore {
                core,
                rs_data,
                rs_addr,
                base,
                lane,
            } => {
                if cores[core as usize].predicate {
                    let a = regs[rs_addr as usize] as u16;
                    let addr = lane as usize + (base as usize + a as usize) % sw;
                    scratch[addr] = regs[rs_data as usize] as u16;
                }
            }
            UOp::GlobalLoad { rd, rs_addr } => {
                let (v, stall) = cache.load(global_addr(regs, rs_addr));
                counters.stall_cycles += stall;
                regs[rd as usize] = v as u32;
            }
            UOp::GlobalStore { rs_data, rs_addr } => {
                // Only the privileged core (linear index 0) has global
                // memory instructions.
                if cores[0].predicate {
                    let v = regs[rs_data as usize] as u16;
                    counters.stall_cycles += cache.store(global_addr(regs, rs_addr), v);
                }
            }
            UOp::Send { rs } => send_vals.push(regs[rs as usize] as u16),
            UOp::Expect { rs1, rs2, eid, .. } => {
                if regs[rs1 as usize] as u16 != regs[rs2 as usize] as u16 {
                    // The privileged core's registers start at word 0.
                    service_exception(
                        exceptions,
                        vcycle,
                        |r| regs[r.index()] as u16,
                        eid,
                        counters,
                        events,
                    )
                    .map_err(|e| (at, e))?;
                }
            }
        }
    }
    Ok(())
}
