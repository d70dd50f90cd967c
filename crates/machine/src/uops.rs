//! The fused micro-op stream: the replay engine, lowered from the replay
//! tape.
//!
//! The tape ([`crate::replay`]) already drops NOPs, idle tails, and all
//! NoC bookkeeping, but interpreting its entries would still pay the
//! general interpreter's costs at every replayed position: the full
//! [`Instruction`] match with `Reg` unwrapping, per-operand strict-hazard
//! branches, two counter read-modify-writes per instruction, and a
//! non-inlinable call into the executor. All of that is *static* — the
//! validation Vcycle proved hazards cannot fire, the instruction mix never
//! changes, and the per-Vcycle counter deltas are constants of the
//! program. So this module compiles each core's tape into a dense
//! [`MicroOp`] stream with
//!
//! - **pre-resolved operands** — flat `u16` register-file indices instead
//!   of `Reg` newtypes, `Slice` masks precomputed from the width, custom
//!   functions resolved to a table index (validated at compile), and
//!   `Send` reduced to its source register (target, slot, and destination
//!   register live in the frozen delivery schedule);
//! - **no hazard checks** — in strict mode the validation Vcycle proved no
//!   read ever observes an in-flight write, so the checks are dead; in
//!   permissive mode they are off by definition. Stale-read *semantics*
//!   are still exact because the pipeline ring commits by `(position,
//!   latency)` arithmetic, identically to the interpreter;
//! - **bulk counters** — `instructions`/`executed`/`sends` accumulate in
//!   locals and flush once per core walk (flushed even on a faulting walk,
//!   so error-path counters match the interpreter bit-for-bit);
//! - **peephole fusion** of the adjacent-position pairs the compiled
//!   workloads actually emit. Measured over all nine workloads on the
//!   15×15 grid (`examples/pair_histogram.rs`): `Alu→Alu` is 58.7% of
//!   adjacent pairs, `Mux→Mux` 4.0%, `Send→Send` 3.4%, `Alu→Send` 1.8%;
//!   `Set` chains and predicated stores never appear (constants arrive
//!   via `init_regs`), so exactly those four pairs are fused. A fused op
//!   executes both halves in one dispatch, with a pipeline commit between
//!   the two positions, so timing-visible behaviour is unchanged.
//!
//! The stream is a pure function of the tape, built once when the program
//! is frozen into a [`crate::CompiledProgram`] (and shared by every run of
//! it) and used by the grid's micro-op replay path ([`crate::grid`])
//! strictly after a validation Vcycle of the program succeeded (in this
//! run or an earlier one).

use manticore_isa::{AluOp, ExceptionDescriptor, Instruction};

use crate::cache::Cache;
use crate::core::CoreView;
use crate::exec::service_exception;
use crate::grid::{HostEvent, MachineError, PerfCounters};
use crate::program::CoreProgram;
use crate::replay::ReplayTape;

/// One micro-op: a pre-resolved payload at a Vcycle position. Fused
/// payloads cover positions `pos` and `pos + 1`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MicroOp {
    pub pos: u32,
    pub op: UOp,
}

/// Pre-resolved micro-op payloads. All register fields are flat
/// register-file indices.
#[derive(Debug, Clone, Copy)]
pub(crate) enum UOp {
    Set {
        rd: u16,
        imm: u16,
    },
    Alu {
        op: AluOp,
        rd: u16,
        rs1: u16,
        rs2: u16,
    },
    AddCarry {
        rd: u16,
        rs1: u16,
        rs2: u16,
        rsc: u16,
    },
    SubBorrow {
        rd: u16,
        rs1: u16,
        rs2: u16,
        rsb: u16,
    },
    Mux {
        rd: u16,
        rs_sel: u16,
        rs1: u16,
        rs2: u16,
    },
    /// `rd = (rs >> shift) & mask`; the mask is precomputed from the
    /// width, so the per-step width check of the interpreter is gone.
    Slice {
        rd: u16,
        rs: u16,
        shift: u8,
        mask: u16,
    },
    Custom {
        rd: u16,
        func: u16,
        rs: [u16; 4],
    },
    Predicate {
        rs: u16,
    },
    LocalLoad {
        rd: u16,
        rs_addr: u16,
        base: u32,
    },
    LocalStore {
        rs_data: u16,
        rs_addr: u16,
        base: u32,
    },
    GlobalLoad {
        rd: u16,
        rs_addr: [u16; 3],
    },
    GlobalStore {
        rs_data: u16,
        rs_addr: [u16; 3],
    },
    /// Record this Vcycle's value of `rs`; routing lives in the frozen
    /// delivery schedule.
    Send {
        rs: u16,
    },
    Expect {
        rs1: u16,
        rs2: u16,
        eid: u16,
    },
    // ---- fused pairs (see module docs for the measurement) ----
    AluAlu {
        op1: AluOp,
        rd1: u16,
        rs11: u16,
        rs12: u16,
        op2: AluOp,
        rd2: u16,
        rs21: u16,
        rs22: u16,
    },
    MuxMux {
        rd1: u16,
        sel1: u16,
        rs11: u16,
        rs12: u16,
        rd2: u16,
        sel2: u16,
        rs21: u16,
        rs22: u16,
    },
    AluSend {
        op: AluOp,
        rd: u16,
        rs1: u16,
        rs2: u16,
        rs_send: u16,
    },
    SendSend {
        rs1: u16,
        rs2: u16,
    },
}

/// One executing epilogue slot, pre-resolved: write `send_vals[send_idx]`
/// into register `rd` of core `core`. Ordered `(core, slot)` — the serial
/// epilogue walk order, so repeated destinations overwrite identically.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EpiEntry {
    pub core: u32,
    pub rd: u16,
    pub send_idx: u32,
}

/// The compiled micro-op program for a whole machine.
#[derive(Debug)]
pub(crate) struct MicroProgram {
    /// Per core (linear index): the fused micro-op stream, positions
    /// ascending.
    pub streams: Vec<Vec<MicroOp>>,
    /// Cores with at least one micro-op or epilogue slot, in linear
    /// order; all other cores are architecturally inert every Vcycle and
    /// are skipped entirely.
    pub active: Vec<u32>,
    /// The executing epilogue slots, pre-resolved to direct register
    /// writes (used by the direct-commit path).
    pub epi_prog: Vec<EpiEntry>,
    /// True if some register written near the Vcycle end is read early
    /// enough in the next Vcycle to observe the write still in flight.
    /// This is a static property (`write pos + hazard latency >
    /// vcycle_len + read pos`, all constants), and when it holds strict
    /// mode must keep runtime hazard checks — such a run stays on the
    /// interpreter, which reports the exact error. No compiled workload
    /// exhibits it; the flag exists so the fast path cannot silently
    /// change semantics.
    pub cross_hazard: bool,
    /// Tape entries absorbed into fused pairs (reporting only).
    pub fused_pairs: usize,
}

/// Lowers one decoded instruction to its micro-op payload.
fn lower(instr: Instruction) -> UOp {
    match instr {
        Instruction::Nop => unreachable!("the tape holds no NOPs"),
        Instruction::Set { rd, imm } => UOp::Set { rd: rd.0, imm },
        Instruction::Alu { op, rd, rs1, rs2 } => UOp::Alu {
            op,
            rd: rd.0,
            rs1: rs1.0,
            rs2: rs2.0,
        },
        Instruction::AddCarry {
            rd,
            rs1,
            rs2,
            rs_carry,
        } => UOp::AddCarry {
            rd: rd.0,
            rs1: rs1.0,
            rs2: rs2.0,
            rsc: rs_carry.0,
        },
        Instruction::SubBorrow {
            rd,
            rs1,
            rs2,
            rs_borrow,
        } => UOp::SubBorrow {
            rd: rd.0,
            rs1: rs1.0,
            rs2: rs2.0,
            rsb: rs_borrow.0,
        },
        Instruction::Mux {
            rd,
            rs_sel,
            rs1,
            rs2,
        } => UOp::Mux {
            rd: rd.0,
            rs_sel: rs_sel.0,
            rs1: rs1.0,
            rs2: rs2.0,
        },
        Instruction::Slice {
            rd,
            rs,
            offset,
            width,
        } => UOp::Slice {
            rd: rd.0,
            rs: rs.0,
            shift: offset,
            mask: if width >= 16 {
                0xffff
            } else {
                (1u16 << width) - 1
            },
        },
        Instruction::Custom { rd, func, rs } => UOp::Custom {
            rd: rd.0,
            func: func as u16,
            rs: [rs[0].0, rs[1].0, rs[2].0, rs[3].0],
        },
        Instruction::Predicate { rs } => UOp::Predicate { rs: rs.0 },
        Instruction::LocalLoad { rd, rs_addr, base } => UOp::LocalLoad {
            rd: rd.0,
            rs_addr: rs_addr.0,
            base: base as u32,
        },
        Instruction::LocalStore {
            rs_data,
            rs_addr,
            base,
        } => UOp::LocalStore {
            rs_data: rs_data.0,
            rs_addr: rs_addr.0,
            base: base as u32,
        },
        Instruction::GlobalLoad { rd, rs_addr } => UOp::GlobalLoad {
            rd: rd.0,
            rs_addr: [rs_addr[0].0, rs_addr[1].0, rs_addr[2].0],
        },
        Instruction::GlobalStore { rs_data, rs_addr } => UOp::GlobalStore {
            rs_data: rs_data.0,
            rs_addr: [rs_addr[0].0, rs_addr[1].0, rs_addr[2].0],
        },
        Instruction::Send { rs, .. } => UOp::Send { rs: rs.0 },
        Instruction::Expect { rs1, rs2, eid } => UOp::Expect {
            rs1: rs1.0,
            rs2: rs2.0,
            eid,
        },
    }
}

/// Tries to fuse two adjacent-position micro-ops into one dispatch.
fn fuse(a: &MicroOp, b: &MicroOp) -> Option<UOp> {
    if b.pos != a.pos + 1 {
        return None;
    }
    match (a.op, b.op) {
        (
            UOp::Alu { op, rd, rs1, rs2 },
            UOp::Alu {
                op: op2,
                rd: rd2,
                rs1: rs21,
                rs2: rs22,
            },
        ) => Some(UOp::AluAlu {
            op1: op,
            rd1: rd,
            rs11: rs1,
            rs12: rs2,
            op2,
            rd2,
            rs21,
            rs22,
        }),
        (
            UOp::Mux {
                rd,
                rs_sel,
                rs1,
                rs2,
            },
            UOp::Mux {
                rd: rd2,
                rs_sel: sel2,
                rs1: rs21,
                rs2: rs22,
            },
        ) => Some(UOp::MuxMux {
            rd1: rd,
            sel1: rs_sel,
            rs11: rs1,
            rs12: rs2,
            rd2,
            sel2,
            rs21,
            rs22,
        }),
        (UOp::Alu { op, rd, rs1, rs2 }, UOp::Send { rs }) => Some(UOp::AluSend {
            op,
            rd,
            rs1,
            rs2,
            rs_send: rs,
        }),
        (UOp::Send { rs }, UOp::Send { rs: rs2 }) => Some(UOp::SendSend { rs1: rs, rs2 }),
        _ => None,
    }
}

impl MicroProgram {
    /// Approximate heap footprint of the compiled streams, in bytes. An
    /// accounting figure for cache budgeting, not an allocator-exact
    /// measurement.
    pub(crate) fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let mut bytes = size_of::<Self>();
        for stream in &self.streams {
            bytes += stream.len() * size_of::<MicroOp>();
        }
        bytes += self.active.len() * size_of::<u32>();
        bytes += self.epi_prog.len() * size_of::<EpiEntry>();
        bytes
    }

    /// Compiles the frozen tape into fused micro-op streams.
    pub fn compile(
        tape: &ReplayTape,
        cores: &[CoreProgram],
        vcycle_len: u64,
        hazard_latency: u64,
    ) -> MicroProgram {
        let mut streams = Vec::with_capacity(tape.body.len());
        let mut fused_pairs = 0usize;
        for ops in &tape.body {
            let mut stream: Vec<MicroOp> = Vec::with_capacity(ops.len());
            let mut i = 0;
            while i < ops.len() {
                let a = MicroOp {
                    pos: ops[i].pos,
                    op: lower(ops[i].instr),
                };
                if i + 1 < ops.len() {
                    let b = MicroOp {
                        pos: ops[i + 1].pos,
                        op: lower(ops[i + 1].instr),
                    };
                    if let Some(f) = fuse(&a, &b) {
                        stream.push(MicroOp { pos: a.pos, op: f });
                        fused_pairs += 1;
                        i += 2;
                        continue;
                    }
                }
                stream.push(a);
                i += 1;
            }
            streams.push(stream);
        }
        let active = cores
            .iter()
            .enumerate()
            .filter(|(idx, c)| !streams[*idx].is_empty() || c.epilogue_len > 0)
            .map(|(idx, _)| idx as u32)
            .collect();

        // Executing epilogue slots, pre-resolved. Delivery order per
        // target is slot order (slots are assigned sequentially), so a
        // stable sort by core reproduces the serial `(core, slot)` walk.
        let mut epi_prog: Vec<EpiEntry> = tape
            .deliveries
            .iter()
            .enumerate()
            .filter(|(_, d)| {
                let tgt = d.target as usize;
                let slot_of_target = d.slot as usize;
                slot_of_target < tape.epi_exec[tgt]
            })
            .map(|(_, d)| EpiEntry {
                core: d.target,
                rd: d.rd.0,
                send_idx: d.send_idx,
            })
            .collect();
        epi_prog.sort_by_key(|e| e.core);

        MicroProgram {
            cross_hazard: cross_boundary_hazard(tape, cores, vcycle_len, hazard_latency),
            streams,
            active,
            epi_prog,
            fused_pairs,
        }
    }
}

/// True if any register write near the Vcycle end (`pos + lat >
/// vcycle_len`, body or epilogue) is read by the same core early enough
/// in the next Vcycle (`read pos < write pos + lat - vcycle_len`) to
/// observe the write in flight. Registers are core-local, so the check is
/// per core; everything involved is static. See
/// [`MicroProgram::cross_hazard`].
fn cross_boundary_hazard(
    tape: &ReplayTape,
    cores: &[CoreProgram],
    vcycle_len: u64,
    lat: u64,
) -> bool {
    // Per-core per-register end of the stale window in next-Vcycle
    // positions: a read at `pos < window` observes the pending write.
    let mut windows: Vec<std::collections::HashMap<u16, u64>> =
        vec![Default::default(); cores.len()];
    let mut any = false;
    for (idx, ops) in tape.body.iter().enumerate() {
        for op in ops {
            if let Some(rd) = op.instr.dest() {
                let end = (op.pos as u64 + lat).saturating_sub(vcycle_len);
                if end > 0 {
                    let w = windows[idx].entry(rd.0).or_insert(0);
                    *w = (*w).max(end);
                    any = true;
                }
            }
        }
    }
    for d in &tape.deliveries {
        let idx = d.target as usize;
        if (d.slot as usize) < tape.epi_exec[idx] {
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
    for (idx, ops) in tape.body.iter().enumerate() {
        if windows[idx].is_empty() {
            continue;
        }
        for op in ops {
            if op.pos as u64 >= lat {
                break; // windows never extend past `lat - 1`
            }
            for src in op.instr.sources() {
                if let Some(&end) = windows[idx].get(&src.0) {
                    if (op.pos as u64) < end {
                        return true;
                    }
                }
            }
        }
    }
    false
}

/// Queues (ringed mode) or immediately commits (direct mode) a register
/// write. Direct commit is legal exactly when no read can observe the
/// write in flight — strict-validated programs without a cross-boundary
/// hazard — because then the delayed and the immediate write are
/// indistinguishable to every architectural observer (reads happen after
/// the commit point, and the host's flushed view returns the latest write
/// either way).
#[inline(always)]
fn write<const DIRECT: bool>(
    view: &mut CoreView<'_>,
    now: u64,
    lat: u64,
    rd: u16,
    value: u16,
    carry: bool,
) {
    if DIRECT {
        view.regs[rd as usize] = value as u32 | ((carry as u32) << 16);
    } else {
        view.cs.write_reg_idx(now, lat, rd, value, carry);
    }
}

/// Ringed mode commits pending writes before each position, exactly like
/// the interpreter; direct mode has nothing in flight.
#[inline(always)]
fn commit<const DIRECT: bool>(view: &mut CoreView<'_>, now: u64) {
    if !DIRECT {
        view.commit_due(now);
    }
}

#[inline(always)]
fn exec_alu<const DIRECT: bool>(
    view: &mut CoreView<'_>,
    now: u64,
    lat: u64,
    op: AluOp,
    rd: u16,
    rs1: u16,
    rs2: u16,
) {
    let a = view.regs[rs1 as usize] as u16;
    let b = view.regs[rs2 as usize] as u16;
    let (v, c) = op.eval(a, b);
    write::<DIRECT>(view, now, lat, rd, v, c);
}

#[inline(always)]
fn exec_mux<const DIRECT: bool>(
    view: &mut CoreView<'_>,
    now: u64,
    lat: u64,
    rd: u16,
    sel: u16,
    rs1: u16,
    rs2: u16,
) {
    let s = view.regs[sel as usize] as u16;
    let v = if s != 0 {
        view.regs[rs1 as usize]
    } else {
        view.regs[rs2 as usize]
    } as u16;
    write::<DIRECT>(view, now, lat, rd, v, false);
}

/// Walks one core's micro-op stream for one Vcycle.
///
/// `DIRECT` selects immediate register commits (strict-validated
/// programs, where no read can observe an in-flight write — see
/// [`write`]) versus the pipeline ring (permissive mode, where stale
/// reads are real and timing matters).
///
/// Counter deltas (`instructions`, `executed`, `sends`) accumulate in
/// locals and flush once — including on a faulting walk, where the
/// prefix up to and through the faulting op is flushed exactly as the
/// interpreter would have counted it, and the fault comes back with its
/// position (for [`ReplayTape::fault_counters`]). Only the privileged
/// core can fault (`Expect`) or touch the cache; `cache` is `Some`
/// exactly for it.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_core_uops<const DIRECT: bool>(
    exceptions: &[ExceptionDescriptor],
    vcycle: u64,
    scratch_words: usize,
    lat: u64,
    vstart: u64,
    view: &mut CoreView<'_>,
    stream: &[MicroOp],
    mut cache: Option<&mut Cache>,
    counters: &mut PerfCounters,
    events: &mut Vec<HostEvent>,
    send_vals: &mut Vec<u16>,
) -> Result<(), (u64, MachineError)> {
    if DIRECT {
        // Writes left in flight by a previous Vcycle on another engine
        // (e.g. the validation Vcycle) commit now; no read could have
        // observed them pending, so early commit is invisible.
        view.commit_due(u64::MAX);
    }
    let mut ic: u64 = 0;
    let mut sends: u64 = 0;
    let mut result = Ok(());
    for mop in stream {
        let pos = mop.pos as u64;
        let now = vstart + pos;
        commit::<DIRECT>(view, now);
        match mop.op {
            UOp::Set { rd, imm } => {
                ic += 1;
                write::<DIRECT>(view, now, lat, rd, imm, false);
            }
            UOp::Alu { op, rd, rs1, rs2 } => {
                ic += 1;
                exec_alu::<DIRECT>(view, now, lat, op, rd, rs1, rs2);
            }
            UOp::AddCarry { rd, rs1, rs2, rsc } => {
                ic += 1;
                let a = view.regs[rs1 as usize] & 0xffff;
                let b = view.regs[rs2 as usize] & 0xffff;
                let cin = (view.regs[rsc as usize] >> 16) & 1;
                let sum = a + b + cin;
                write::<DIRECT>(view, now, lat, rd, sum as u16, sum > 0xffff);
            }
            UOp::SubBorrow { rd, rs1, rs2, rsb } => {
                ic += 1;
                let a = (view.regs[rs1 as usize] as u16) as i32;
                let b = (view.regs[rs2 as usize] as u16) as i32;
                let cin = ((view.regs[rsb as usize] >> 16) & 1) as i32;
                let diff = a - b - (1 - cin);
                write::<DIRECT>(view, now, lat, rd, diff as u16, diff >= 0);
            }
            UOp::Mux {
                rd,
                rs_sel,
                rs1,
                rs2,
            } => {
                ic += 1;
                exec_mux::<DIRECT>(view, now, lat, rd, rs_sel, rs1, rs2);
            }
            UOp::Slice {
                rd,
                rs,
                shift,
                mask,
            } => {
                ic += 1;
                let v = view.regs[rs as usize] as u16;
                write::<DIRECT>(view, now, lat, rd, (v >> shift) & mask, false);
            }
            UOp::Custom { rd, func, rs } => {
                ic += 1;
                // Validated during the validation Vcycle: an unprogrammed
                // function index faults there, before replay ever runs.
                let masks = view.prog.custom_masks[func as usize];
                let a = view.regs[rs[0] as usize] as u16;
                let b = view.regs[rs[1] as usize] as u16;
                let c = view.regs[rs[2] as usize] as u16;
                let d = view.regs[rs[3] as usize] as u16;
                let out = crate::exec::eval_custom_masks(&masks, a, b, c, d);
                write::<DIRECT>(view, now, lat, rd, out, false);
            }
            UOp::Predicate { rs } => {
                ic += 1;
                view.cs.predicate = view.regs[rs as usize] as u16 != 0;
            }
            UOp::LocalLoad { rd, rs_addr, base } => {
                ic += 1;
                let a = view.regs[rs_addr as usize] as u16;
                let addr = (base as usize + a as usize) % scratch_words;
                let v = view.scratch[addr];
                write::<DIRECT>(view, now, lat, rd, v, false);
            }
            UOp::LocalStore {
                rs_data,
                rs_addr,
                base,
            } => {
                ic += 1;
                let v = view.regs[rs_data as usize] as u16;
                let a = view.regs[rs_addr as usize] as u16;
                if view.cs.predicate {
                    let addr = (base as usize + a as usize) % scratch_words;
                    view.scratch[addr] = v;
                }
            }
            UOp::GlobalLoad { rd, rs_addr } => {
                ic += 1;
                let addr = (view.regs[rs_addr[0] as usize] as u64 & 0xffff)
                    | ((view.regs[rs_addr[1] as usize] as u64 & 0xffff) << 16)
                    | ((view.regs[rs_addr[2] as usize] as u64 & 0xffff) << 32);
                let cache = cache.as_deref_mut().expect("privileged core has the cache");
                let (v, stall) = cache.load(addr);
                counters.stall_cycles += stall;
                write::<DIRECT>(view, now, lat, rd, v, false);
            }
            UOp::GlobalStore { rs_data, rs_addr } => {
                ic += 1;
                let v = view.regs[rs_data as usize] as u16;
                let addr = (view.regs[rs_addr[0] as usize] as u64 & 0xffff)
                    | ((view.regs[rs_addr[1] as usize] as u64 & 0xffff) << 16)
                    | ((view.regs[rs_addr[2] as usize] as u64 & 0xffff) << 32);
                if view.cs.predicate {
                    let cache = cache.as_deref_mut().expect("privileged core has the cache");
                    let stall = cache.store(addr, v);
                    counters.stall_cycles += stall;
                }
            }
            UOp::Send { rs } => {
                ic += 1;
                sends += 1;
                send_vals.push(view.regs[rs as usize] as u16);
            }
            UOp::Expect { rs1, rs2, eid } => {
                ic += 1;
                let a = view.regs[rs1 as usize] as u16;
                let b = view.regs[rs2 as usize] as u16;
                if a != b {
                    if let Err(err) = service_exception(
                        exceptions,
                        vcycle,
                        |r| view.reg_value_flushed(r),
                        eid,
                        counters,
                        events,
                    ) {
                        result = Err((pos, err));
                        break;
                    }
                }
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
                exec_alu::<DIRECT>(view, now, lat, op1, rd1, rs11, rs12);
                commit::<DIRECT>(view, now + 1);
                exec_alu::<DIRECT>(view, now + 1, lat, op2, rd2, rs21, rs22);
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
                exec_mux::<DIRECT>(view, now, lat, rd1, sel1, rs11, rs12);
                commit::<DIRECT>(view, now + 1);
                exec_mux::<DIRECT>(view, now + 1, lat, rd2, sel2, rs21, rs22);
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
                exec_alu::<DIRECT>(view, now, lat, op, rd, rs1, rs2);
                commit::<DIRECT>(view, now + 1);
                send_vals.push(view.regs[rs_send as usize] as u16);
            }
            UOp::SendSend { rs1, rs2 } => {
                ic += 2;
                sends += 2;
                send_vals.push(view.regs[rs1 as usize] as u16);
                commit::<DIRECT>(view, now + 1);
                send_vals.push(view.regs[rs2 as usize] as u16);
            }
        }
    }
    view.cs.executed += ic;
    counters.instructions += ic;
    counters.sends += sends;
    result
}
