//! The per-core instruction step of the grid interpreter.
//!
//! All architectural effects of one core executing one Vcycle position
//! go through this module's executors: the interpreter ([`crate::grid`])
//! calls [`step_core`], which mutates only
//!
//! - the core's own state (a [`CoreView`]: per-core metadata plus the
//!   core's register-file and scratchpad lanes of the machine's
//!   structure-of-arrays storage),
//! - the caller-supplied [`PerfCounters`] accumulator,
//! - the caller-supplied host-event list (privileged core only),
//! - the caller-supplied [`SendRecord`] list (messages are *recorded*, not
//!   routed — the engine decides when to inject them into the NoC), and
//! - the global cache (privileged core only; `None` for everyone else).
//!
//! Everything cross-core — NoC routing, message delivery, link-collision
//! validation — stays in the grid.
//!
//! The micro-op replay engine ([`crate::uops`]) does *not* go through this
//! module's interpreter — that is its point — but it is compiled from the
//! same decoded instructions and validated against it by the equivalence
//! suites; it shares [`service_exception`]. The interpreter is also the
//! only engine that models the pipeline's stale reads: permissive runs
//! execute here every Vcycle.

use manticore_isa::{CoreId, ExceptionDescriptor, ExceptionKind, Instruction, MachineConfig, Reg};

use crate::cache::Cache;
use crate::core::CoreView;
use crate::grid::{HostEvent, MachineError, PerfCounters};

/// Grid-stall cycles charged per serviced exception (host round-trip over
/// PCIe; the paper notes crossing the host-device boundary is expensive).
pub(crate) const EXCEPTION_STALL: u64 = 200;

/// Read-only execution context for one Vcycle.
pub(crate) struct ExecEnv<'a> {
    pub config: &'a MachineConfig,
    pub exceptions: &'a [ExceptionDescriptor],
    pub strict_hazards: bool,
    /// Current Vcycle index (for assertion-failure reporting).
    pub vcycle: u64,
}

/// A `Send` executed this Vcycle, recorded for the grid to inject into
/// the NoC.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SendRecord {
    pub from: CoreId,
    pub target: CoreId,
    pub rd: Reg,
    pub value: u16,
}

/// The `CoreId` of the core at linear index `idx` in a row-major grid.
pub(crate) fn core_id_of(idx: usize, grid_width: usize) -> CoreId {
    CoreId::new((idx % grid_width) as u8, (idx / grid_width) as u8)
}

fn read_operand(
    env: &ExecEnv<'_>,
    core: &CoreView<'_>,
    core_id: CoreId,
    r: Reg,
    pos: u64,
) -> Result<u16, MachineError> {
    if env.strict_hazards && core.cs.has_pending_write(r) {
        return Err(MachineError::Hazard {
            core: core_id,
            position: pos,
            reg: r,
        });
    }
    Ok(core.reg_value(r))
}

fn read_carry(
    env: &ExecEnv<'_>,
    core: &CoreView<'_>,
    core_id: CoreId,
    r: Reg,
    pos: u64,
) -> Result<bool, MachineError> {
    if env.strict_hazards && core.cs.has_pending_write(r) {
        return Err(MachineError::Hazard {
            core: core_id,
            position: pos,
            reg: r,
        });
    }
    Ok(core.reg_carry(r))
}

fn require_privileged(core_id: CoreId) -> Result<(), MachineError> {
    if core_id != CoreId::PRIVILEGED {
        return Err(MachineError::NotPrivileged { core: core_id });
    }
    Ok(())
}

fn global_addr(
    env: &ExecEnv<'_>,
    core: &CoreView<'_>,
    core_id: CoreId,
    rs_addr: [Reg; 3],
    pos: u64,
) -> Result<u64, MachineError> {
    let lo = read_operand(env, core, core_id, rs_addr[0], pos)? as u64;
    let mid = read_operand(env, core, core_id, rs_addr[1], pos)? as u64;
    let hi = read_operand(env, core, core_id, rs_addr[2], pos)? as u64;
    Ok(lo | (mid << 16) | (hi << 32))
}

/// Services an `Expect` exception: the grid stalls and the host acts on
/// the descriptor. Shared by the interpreter, the micro-op engine, and the
/// lane-batched gang engine. `read_flushed` is the host's view of the
/// servicing core's registers (pipeline drained) — a closure rather than a
/// [`CoreView`] because the gang engine's lane rows have no contiguous
/// per-core register slice to view.
pub(crate) fn service_exception(
    exceptions: &[ExceptionDescriptor],
    vcycle: u64,
    read_flushed: impl Fn(Reg) -> u16,
    eid: u16,
    counters: &mut PerfCounters,
    events: &mut Vec<HostEvent>,
) -> Result<(), MachineError> {
    counters.exceptions += 1;
    counters.stall_cycles += EXCEPTION_STALL;
    let desc = exceptions
        .iter()
        .find(|d| d.id.0 == eid)
        .ok_or(MachineError::UnknownException { eid })?
        .clone();
    match desc.kind {
        ExceptionKind::Display { format, args } => {
            let rendered = render_display(&format, &args, read_flushed);
            events.push(HostEvent::Display(rendered));
        }
        ExceptionKind::AssertFail { message } => {
            return Err(MachineError::AssertFailed { message, vcycle });
        }
        ExceptionKind::Finish => {
            events.push(HostEvent::Finish);
        }
    }
    Ok(())
}

/// Executes the instruction (or epilogue slot) at Vcycle position `pos` on
/// one core. `now` is the compute-domain time (`vcycle_start + pos`);
/// `cache` is `Some` exactly for the privileged core.
///
/// All effects go through the caller-supplied accumulators (the
/// machine's globals).
///
/// This is the single source of architectural truth for instruction
/// semantics: the interpreter funnels every position through here (the
/// micro-op engine is compiled from the same instructions and checked
/// against this interpreter).
#[allow(clippy::too_many_arguments)]
pub(crate) fn step_core(
    env: &ExecEnv<'_>,
    core: &mut CoreView<'_>,
    core_id: CoreId,
    pos: u64,
    now: u64,
    cache: Option<&mut Cache>,
    counters: &mut PerfCounters,
    events: &mut Vec<HostEvent>,
    sends: &mut Vec<SendRecord>,
) -> Result<(), MachineError> {
    let body_len = core.prog.body.len() as u64;
    let epi_len = core.prog.epilogue_len as u64;
    let lat = env.config.hazard_latency as u64;

    // Epilogue region: execute received messages as SET instructions.
    if pos >= body_len {
        let slot = (pos - body_len) as usize;
        if pos < body_len + epi_len {
            match core.cs.epilogue[slot] {
                Some((rd, value)) => {
                    core.write_reg(now, lat, rd, value, false);
                    core.cs.executed += 1;
                    counters.instructions += 1;
                }
                None => {
                    // The schedule promised a message for this slot and it
                    // has not arrived: the real hardware would execute a
                    // stale SET here. Strict mode reports it as the
                    // deterministic scheduling bug it is; permissive mode
                    // keeps the historical treat-as-NOP behaviour (the
                    // shortfall still surfaces as `MissingMessages` at the
                    // Vcycle wrap).
                    if env.strict_hazards {
                        return Err(MachineError::MissingScheduledMessage {
                            core: core_id,
                            slot,
                            position: pos,
                        });
                    }
                }
            }
        }
        return Ok(());
    }

    let instr = core.prog.body[pos as usize];
    if !matches!(instr, Instruction::Nop) {
        core.cs.executed += 1;
        counters.instructions += 1;
    }
    match instr {
        Instruction::Nop => {}
        Instruction::Set { rd, imm } => {
            core.write_reg(now, lat, rd, imm, false);
        }
        Instruction::Alu { op, rd, rs1, rs2 } => {
            let a = read_operand(env, core, core_id, rs1, pos)?;
            let b = read_operand(env, core, core_id, rs2, pos)?;
            let (v, c) = op.eval(a, b);
            core.write_reg(now, lat, rd, v, c);
        }
        Instruction::AddCarry {
            rd,
            rs1,
            rs2,
            rs_carry,
        } => {
            let a = read_operand(env, core, core_id, rs1, pos)? as u32;
            let b = read_operand(env, core, core_id, rs2, pos)? as u32;
            let cin = read_carry(env, core, core_id, rs_carry, pos)? as u32;
            let sum = a + b + cin;
            core.write_reg(now, lat, rd, sum as u16, sum > 0xffff);
        }
        Instruction::SubBorrow {
            rd,
            rs1,
            rs2,
            rs_borrow,
        } => {
            let a = read_operand(env, core, core_id, rs1, pos)? as i32;
            let b = read_operand(env, core, core_id, rs2, pos)? as i32;
            let carry_in = read_carry(env, core, core_id, rs_borrow, pos)? as i32;
            let diff = a - b - (1 - carry_in);
            core.write_reg(now, lat, rd, diff as u16, diff >= 0);
        }
        Instruction::Mux {
            rd,
            rs_sel,
            rs1,
            rs2,
        } => {
            let sel = read_operand(env, core, core_id, rs_sel, pos)?;
            let a = read_operand(env, core, core_id, rs1, pos)?;
            let b = read_operand(env, core, core_id, rs2, pos)?;
            let v = if sel != 0 { a } else { b };
            core.write_reg(now, lat, rd, v, false);
        }
        Instruction::Slice {
            rd,
            rs,
            offset,
            width,
        } => {
            let v = read_operand(env, core, core_id, rs, pos)?;
            let mask = if width >= 16 {
                0xffff
            } else {
                (1u16 << width) - 1
            };
            core.write_reg(now, lat, rd, (v >> offset) & mask, false);
        }
        Instruction::Custom { rd, func, rs } => {
            let masks = *core.prog.custom_masks.get(func as usize).ok_or_else(|| {
                MachineError::Load(format!(
                    "custom function {func} not programmed on {core_id}"
                ))
            })?;
            let a = read_operand(env, core, core_id, rs[0], pos)?;
            let b = read_operand(env, core, core_id, rs[1], pos)?;
            let c = read_operand(env, core, core_id, rs[2], pos)?;
            let d = read_operand(env, core, core_id, rs[3], pos)?;
            let out = custom_mux_tree(&masks, a, b, c, d);
            core.write_reg(now, lat, rd, out, false);
        }
        Instruction::Predicate { rs } => {
            let v = read_operand(env, core, core_id, rs, pos)?;
            core.cs.predicate = v != 0;
        }
        Instruction::LocalLoad { rd, rs_addr, base } => {
            let a = read_operand(env, core, core_id, rs_addr, pos)?;
            let addr = (base as usize + a as usize) % env.config.scratch_words;
            let v = core.scratch[addr];
            core.write_reg(now, lat, rd, v, false);
        }
        Instruction::LocalStore {
            rs_data,
            rs_addr,
            base,
        } => {
            let v = read_operand(env, core, core_id, rs_data, pos)?;
            let a = read_operand(env, core, core_id, rs_addr, pos)?;
            if core.cs.predicate {
                let addr = (base as usize + a as usize) % env.config.scratch_words;
                core.scratch[addr] = v;
            }
        }
        Instruction::GlobalLoad { rd, rs_addr } => {
            require_privileged(core_id)?;
            let addr = global_addr(env, core, core_id, rs_addr, pos)?;
            let cache = cache.expect("privileged core must be stepped with the cache");
            let (v, stall) = cache.load(addr);
            counters.stall_cycles += stall;
            core.write_reg(now, lat, rd, v, false);
        }
        Instruction::GlobalStore { rs_data, rs_addr } => {
            require_privileged(core_id)?;
            let v = read_operand(env, core, core_id, rs_data, pos)?;
            let addr = global_addr(env, core, core_id, rs_addr, pos)?;
            if core.cs.predicate {
                let cache = cache.expect("privileged core must be stepped with the cache");
                let stall = cache.store(addr, v);
                counters.stall_cycles += stall;
            }
        }
        Instruction::Send {
            target,
            rd_remote,
            rs,
        } => {
            let v = read_operand(env, core, core_id, rs, pos)?;
            counters.sends += 1;
            sends.push(SendRecord {
                from: core_id,
                target,
                rd: rd_remote,
                value: v,
            });
        }
        Instruction::Expect { rs1, rs2, eid } => {
            require_privileged(core_id)?;
            let a = read_operand(env, core, core_id, rs1, pos)?;
            let b = read_operand(env, core, core_id, rs2, pos)?;
            if a != b {
                service_exception(
                    env.exceptions,
                    env.vcycle,
                    |r| core.reg_value_flushed(r),
                    eid,
                    counters,
                    events,
                )?;
            }
        }
    }
    Ok(())
}

/// Applies a 4-input LUT truth table across the 16 bit lanes — the
/// direct bit-at-a-time reference form. Execution engines use the
/// bitsliced [`custom_mux_tree`] over the load-time-transposed masks;
/// this form remains the specification it is tested against (hence live
/// only under `cfg(test)`).
#[inline]
#[allow(dead_code)]
pub(crate) fn eval_custom(table: &[u16; 16], a: u16, b: u16, c: u16, d: u16) -> u16 {
    let mut out = 0u16;
    for (lane, &row) in table.iter().enumerate() {
        let sel = ((a >> lane) & 1)
            | (((b >> lane) & 1) << 1)
            | (((c >> lane) & 1) << 2)
            | (((d >> lane) & 1) << 3);
        out |= ((row >> sel) & 1) << lane;
    }
    out
}

/// Transposes a custom-function truth table into its bitsliced mask form:
/// `masks[s]` holds, across all 16 bit lanes, truth-table entry `s` —
/// `masks[s] bit j = (table[j] >> s) & 1`. Computed once at load
/// ([`crate::CompiledProgram`]) so every engine evaluates custom
/// functions through the branch-free [`custom_mux_tree`].
pub(crate) fn transpose_custom(table: &[u16; 16]) -> [u16; 16] {
    let mut masks = [0u16; 16];
    for (j, &row) in table.iter().enumerate() {
        for (s, mask) in masks.iter_mut().enumerate() {
            *mask |= ((row >> s) & 1) << j;
        }
    }
    masks
}

/// Evaluates a custom function through its bitsliced masks (see
/// [`transpose_custom`]): four select levels of word-wide AND/OR, ~50
/// branch-free ops instead of the reference form's 16-iteration bit loop.
/// Generic over the word, so the interpreter's and the solo replay's
/// `u16` and the gang kernel's lane rows (`crate::gang::custom_row`, one
/// tree for all lanes) run one piece of logic. Bit-equivalence with
/// [`eval_custom`] is pinned by `custom_masks_match_reference` in the
/// machine test suite.
#[inline(always)]
pub(crate) fn custom_mux_tree<T>(m: &[T; 16], a: T, b: T, c: T, d: T) -> T
where
    T: Copy
        + std::ops::Not<Output = T>
        + std::ops::BitAnd<Output = T>
        + std::ops::BitOr<Output = T>,
{
    let (na, nb, nc, nd) = (!a, !b, !c, !d);
    let u0 = (m[0] & na) | (m[1] & a);
    let u1 = (m[2] & na) | (m[3] & a);
    let u2 = (m[4] & na) | (m[5] & a);
    let u3 = (m[6] & na) | (m[7] & a);
    let u4 = (m[8] & na) | (m[9] & a);
    let u5 = (m[10] & na) | (m[11] & a);
    let u6 = (m[12] & na) | (m[13] & a);
    let u7 = (m[14] & na) | (m[15] & a);
    let v0 = (u0 & nb) | (u1 & b);
    let v1 = (u2 & nb) | (u3 & b);
    let v2 = (u4 & nb) | (u5 & b);
    let v3 = (u6 & nb) | (u7 & b);
    let w0 = (v0 & nc) | (v1 & c);
    let w1 = (v2 & nc) | (v3 & c);
    (w0 & nd) | (w1 & d)
}

/// Renders a display format string; `{}` placeholders print arguments in
/// hex, assembled from their 16-bit words (LSW first).
fn render_display(format: &str, args: &[(Vec<Reg>, usize)], read: impl Fn(Reg) -> u16) -> String {
    let mut out = String::with_capacity(format.len() + 16);
    let mut arg_iter = args.iter();
    let mut chars = format.chars().peekable();
    while let Some(c) = chars.next() {
        if c == '{' && chars.peek() == Some(&'}') {
            chars.next();
            match arg_iter.next() {
                Some((regs, _width)) => {
                    let words: Vec<u16> = regs.iter().map(|&r| read(r)).collect();
                    out.push_str(&hex_of_words(&words));
                }
                None => out.push_str("<missing>"),
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Hex rendering of a little-endian word vector without leading zeros.
fn hex_of_words(words: &[u16]) -> String {
    let mut s = String::new();
    let mut started = false;
    for w in words.iter().rev() {
        if started {
            s.push_str(&format!("{w:04x}"));
        } else if *w != 0 {
            s.push_str(&format!("{w:x}"));
            started = true;
        }
    }
    if !started {
        s.push('0');
    }
    s
}
