//! Register allocation and machine-code emission (§6.3).
//!
//! Each core's register file is split into a *persistent* region — the
//! always-zero register, pooled constants (initialized at boot, never
//! written), and the home registers of state words — and a *temporary*
//! region allocated by linear scan over the scheduled order. The
//! current/next same-register optimization assigns a state's next-value
//! temporary directly to its home register when no reader of the current
//! value executes after the producer, eliminating the commit move (§6.3,
//! citing Wimmer & Franz linear-scan-on-SSA).
//!
//! # Parallel structure and determinism
//!
//! [`emit`] keeps the cheap cross-process phases serial — persistent-
//! register assignment, scratchpad layout, custom-function tables, the
//! exception table, and metadata — and fans the per-process work
//! (liveness, coalescing, linear scan, body emission, scratch image) out
//! over the worker pool. Results land in pre-assigned process slots and
//! the `Binary`'s core images are assembled in process-index order, so
//! the output is bit-identical at any thread count.
//!
//! The allocator keeps every per-vreg fact in a vreg-indexed vector; the
//! test oracle in `oracle.rs` keeps them in hash maps. Liveness and
//! coalescing produce the same per-vreg facts, and the linear scan's free
//! list (LIFO) and active list (insertion-ordered `retain`) are plain
//! vectors in both, so the two differ only in lookup structures, never
//! in decisions. A unit test holds them to the same register assignment
//! on every workload.
//!
//! The scratchpad base table is a `BTreeMap` on purpose: the boot image
//! `init_scratch` is emitted by iterating it, and a hash map here would
//! make the binary's byte order run-dependent (the layout itself is
//! order-insensitive, but the determinism suite compares bytes).

use std::collections::{BTreeMap, BTreeSet, HashMap};

use manticore_isa::{
    AluOp, Binary, CoreImage, ExceptionDescriptor, ExceptionId, ExceptionKind, Instruction,
    MachineConfig, Reg,
};
use manticore_util::parallel_map;

use crate::error::CompileError;
use crate::lir::{LirExceptionKind, LirOp, LirProgram, MemPlacement, Process, StateId, VReg};
use crate::report::{CoreBreakdown, MemLocation, Metadata, RegLocation};
use crate::schedule::Schedule;

/// Emission result: the loadable binary plus location metadata and
/// per-core instruction mixes.
#[derive(Debug, Clone)]
pub struct EmitOutput {
    /// The loadable program.
    pub binary: Binary,
    /// Where RTL state lives.
    pub metadata: Metadata,
    /// Per-process instruction mix.
    pub per_core: Vec<CoreBreakdown>,
}

/// Per-process persistent registers (phase A of emission): the always-
/// zero register, pooled constants and state homes.
pub(crate) struct Persistent {
    /// Per process: vreg -> machine reg for constants and state live-ins.
    pub(crate) pinned: Vec<HashMap<VReg, Reg>>,
    /// Per process: state -> home register.
    pub(crate) state_reg: Vec<BTreeMap<StateId, Reg>>,
    /// Per process: first register available for temporaries.
    pub(crate) temp_base: Vec<u16>,
    /// Per process: boot-time register initialization.
    init_regs: Vec<Vec<(Reg, u16)>>,
}

/// Allocates registers and emits the machine binary, running per-process
/// allocation and emission on `threads` workers. Output is bit-identical
/// at any thread count (see the module docs).
///
/// # Errors
///
/// Register-file or scratchpad overflow (reported for the lowest failing
/// process index).
pub fn emit(
    prog: &LirProgram,
    schedule: &Schedule,
    config: &MachineConfig,
    threads: usize,
) -> Result<EmitOutput, CompileError> {
    let nproc = prog.processes.len();
    let Persistent {
        pinned,
        state_reg,
        temp_base,
        init_regs,
    } = assign_persistent(prog, schedule);

    // ------------------------------------------------------------------
    // Scratchpad layout per process. Ordered map: `init_scratch` below is
    // emitted by iterating it, so its order is part of the binary bytes.
    // ------------------------------------------------------------------
    let mut mem_base: BTreeMap<u32, (usize, u16)> = BTreeMap::new(); // mem -> (process, scratch base)
    for pi in 0..nproc {
        let p = &prog.processes[pi];
        let mut used: BTreeSet<u32> = BTreeSet::new();
        for instr in &p.instrs {
            match &instr.op {
                LirOp::LocalLoad { mem, .. } | LirOp::LocalStore { mem, .. } => {
                    used.insert(mem.0);
                }
                _ => {}
            }
        }
        let mut base = 0usize;
        for m in used {
            let info = &prog.mems[m as usize];
            mem_base.insert(m, (pi, base as u16));
            base += info.total_words();
        }
        if base > config.scratch_words {
            return Err(CompileError::ScratchOverflow {
                needed: base,
                capacity: config.scratch_words,
            });
        }
    }

    // Custom-function table slots per core (first-appearance order).
    let mut cfu_tables: Vec<Vec<[u16; 16]>> = vec![Vec::new(); nproc];
    for (proc, tables) in prog.processes.iter().zip(cfu_tables.iter_mut()) {
        for instr in &proc.instrs {
            if let LirOp::Custom { table } = instr.op {
                if !tables.contains(&table) {
                    tables.push(table);
                }
            }
        }
        assert!(
            tables.len() <= config.num_custom_functions,
            "custom-function synthesis exceeded the table budget"
        );
    }

    // ------------------------------------------------------------------
    // Phase B: per-process liveness, coalescing, linear scan, emission —
    // independent across processes, fanned out over the pool.
    // ------------------------------------------------------------------
    let results = parallel_map(nproc, threads, |pi| {
        let view = alloc_process(
            &prog.processes[pi],
            &schedule.slots[pi],
            &pinned[pi],
            &state_reg[pi],
            temp_base[pi],
            config,
        )?;

        let (body, mut breakdown) = emit_body(
            pi,
            prog,
            schedule,
            &view,
            &state_reg,
            &cfu_tables[pi],
            &mem_base,
        );
        breakdown.epilogue = schedule.epilogue_len[pi] as u64;
        breakdown.nops = schedule.vcycle_len - breakdown.busy();

        // Scratchpad image (ordered by memory id via the BTreeMap).
        let mut init_scratch: Vec<(u16, u16)> = Vec::new();
        for (m, &(owner, base)) in &mem_base {
            if owner != pi {
                continue;
            }
            let info = &prog.mems[*m as usize];
            for (off, &w) in info.init_words.iter().enumerate() {
                if w != 0 {
                    init_scratch.push((base + off as u16, w));
                }
            }
        }

        let image = CoreImage {
            core: schedule.core_of_process[pi],
            body,
            epilogue_len: schedule.epilogue_len[pi] as u32,
            custom_functions: cfu_tables[pi].clone(),
            init_regs: init_regs[pi].clone(),
            init_scratch,
        };
        Ok((view, image, breakdown))
    });
    let mut views: Vec<Vec<Option<Reg>>> = Vec::with_capacity(nproc);
    let mut images: Vec<CoreImage> = Vec::with_capacity(nproc);
    let mut per_core: Vec<CoreBreakdown> = Vec::with_capacity(nproc);
    for r in results {
        let (view, image, breakdown) = r?;
        views.push(view);
        images.push(image);
        per_core.push(breakdown);
    }

    // ------------------------------------------------------------------
    // Exception table with machine registers.
    // ------------------------------------------------------------------
    let priv_idx = prog.processes.iter().position(|p| p.is_privileged);
    let mut exceptions = Vec::with_capacity(prog.exceptions.len());
    for (eid, kind) in prog.exceptions.iter().enumerate() {
        let kind = match kind {
            LirExceptionKind::Display { format, args } => {
                let pi = priv_idx.expect("displays imply a privileged process");
                ExceptionKind::Display {
                    format: format.clone(),
                    args: args
                        .iter()
                        .map(|(regs, w)| {
                            (regs.iter().map(|&v| reg_of(&views[pi], v)).collect(), *w)
                        })
                        .collect(),
                }
            }
            LirExceptionKind::AssertFail { message } => ExceptionKind::AssertFail {
                message: message.clone(),
            },
            LirExceptionKind::Finish => ExceptionKind::Finish,
        };
        exceptions.push(ExceptionDescriptor {
            id: ExceptionId(eid as u16),
            kind,
        });
    }

    // ------------------------------------------------------------------
    // Global memory image.
    // ------------------------------------------------------------------
    let mut init_dram: Vec<(u64, u16)> = Vec::new();
    for info in &prog.mems {
        if let MemPlacement::Global { base } = info.placement {
            for (off, &w) in info.init_words.iter().enumerate() {
                if w != 0 {
                    init_dram.push((base + off as u64, w));
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Metadata.
    // ------------------------------------------------------------------
    let owners = prog.state_owners();
    let mut reg_locations: Vec<RegLocation> = Vec::new();
    {
        // Group states by RTL register.
        let mut by_reg: BTreeMap<u32, Vec<(usize, usize)>> = BTreeMap::new(); // rtl -> (word, state idx)
        for (si, s) in prog.states.iter().enumerate() {
            by_reg.entry(s.rtl_reg.0).or_default().push((s.word, si));
        }
        for (rtl, mut words) in by_reg {
            words.sort_unstable();
            let locs = words
                .iter()
                .map(|&(_, si)| {
                    let owner = owners[si];
                    (
                        schedule.core_of_process[owner],
                        state_reg[owner][&StateId(si as u32)],
                    )
                })
                .collect::<Vec<_>>();
            reg_locations.push(RegLocation {
                rtl_reg: manticore_netlist::RegId(rtl),
                width: words.len() * 16, // upper bound; width refined by caller
                words: locs,
            });
        }
    }
    let mem_locations = prog
        .mems
        .iter()
        .enumerate()
        .map(|(mi, info)| match info.placement {
            MemPlacement::Local => {
                let (owner, base) = mem_base.get(&(mi as u32)).copied().unwrap_or((0, 0));
                MemLocation::Local {
                    rtl_mem: info.rtl_mem,
                    core: schedule.core_of_process[owner],
                    base,
                    words_per_entry: info.words_per_entry,
                }
            }
            MemPlacement::Global { base } => MemLocation::Global {
                rtl_mem: info.rtl_mem,
                base,
                words_per_entry: info.words_per_entry,
            },
        })
        .collect();

    let binary = Binary {
        grid_width: config.grid_width as u32,
        grid_height: config.grid_height as u32,
        vcycle_len: schedule.vcycle_len as u32,
        cores: images,
        exceptions,
        init_dram,
    };
    Ok(EmitOutput {
        binary,
        metadata: Metadata {
            reg_locations,
            mem_locations,
            core_of_process: schedule.core_of_process.clone(),
        },
        per_core,
    })
}

/// Phase A: assigns every process's persistent registers — pooled
/// constants first (value 0 aliases the zero register), then one home per
/// state read or committed there.
pub(crate) fn assign_persistent(prog: &LirProgram, schedule: &Schedule) -> Persistent {
    let nproc = prog.processes.len();
    let mut pinned: Vec<HashMap<VReg, Reg>> = vec![HashMap::new(); nproc];
    let mut state_reg: Vec<BTreeMap<StateId, Reg>> = vec![BTreeMap::new(); nproc];
    let mut temp_base: Vec<u16> = vec![1; nproc];
    let mut init_regs: Vec<Vec<(Reg, u16)>> = vec![Vec::new(); nproc];

    for pi in 0..nproc {
        let p = &prog.processes[pi];
        let mut next = 1u16;
        // Constants (value 0 aliases the zero register).
        let mut by_value: BTreeMap<u16, Reg> = BTreeMap::new();
        let consts = &schedule.const_vregs[pi];
        let mut const_vregs: Vec<(&VReg, &u16)> = consts.iter().collect();
        const_vregs.sort(); // deterministic allocation order
        for (&v, &val) in const_vregs {
            let r = if val == 0 {
                Reg::ZERO
            } else {
                *by_value.entry(val).or_insert_with(|| {
                    let r = Reg(next);
                    next += 1;
                    init_regs[pi].push((r, val));
                    r
                })
            };
            pinned[pi].insert(v, r);
        }
        // State homes: states read here, plus states committed here.
        let mut states: BTreeSet<StateId> = p.state_reads.keys().copied().collect();
        for instr in &p.instrs {
            if let LirOp::CommitLocal { state } = instr.op {
                states.insert(state);
            }
        }
        for s in states {
            let r = Reg(next);
            next += 1;
            state_reg[pi].insert(s, r);
            init_regs[pi].push((r, prog.states[s.index()].init));
            if let Some(&lv) = p.state_reads.get(&s) {
                pinned[pi].insert(lv, r);
            }
        }
        temp_base[pi] = next;
    }

    Persistent {
        pinned,
        state_reg,
        temp_base,
        init_regs,
    }
}

/// Per-process allocation: liveness over scheduled positions, commit
/// coalescing, then a linear scan (LIFO free list, insertion-ordered
/// active list) for the remaining temporaries. Returns the final
/// vreg-indexed register view.
pub(crate) fn alloc_process(
    p: &Process,
    slots: &[Option<usize>],
    pinned: &HashMap<VReg, Reg>,
    state_reg: &BTreeMap<StateId, Reg>,
    temp_base: u16,
    config: &MachineConfig,
) -> Result<Vec<Option<Reg>>, CompileError> {
    let nv = p.num_vregs as usize;
    let mut pinned_v: Vec<Option<Reg>> = vec![None; nv];
    for (&v, &r) in pinned {
        pinned_v[v.index()] = Some(r);
    }

    // Liveness over scheduled positions.
    let mut def_slot: Vec<Option<usize>> = vec![None; nv];
    let mut last_use: Vec<Option<usize>> = vec![None; nv];
    for (t, slot) in slots.iter().enumerate() {
        let Some(i) = *slot else { continue };
        let instr = &p.instrs[i];
        let read_at = t + instr.op.issue_slots() - 1;
        for &a in &instr.args {
            let e = &mut last_use[a.index()];
            *e = Some(e.map_or(read_at, |lu| lu.max(read_at)));
        }
        if let Some(d) = instr.dest {
            def_slot[d.index()] = Some(t);
        }
    }

    // Commit coalescing.
    let mut coalesced_v: Vec<Option<Reg>> = vec![None; nv];
    for slot in slots.iter() {
        let Some(i) = *slot else { continue };
        let LirOp::CommitLocal { state } = p.instrs[i].op else {
            continue;
        };
        let src = p.instrs[i].args[0];
        let home = state_reg[&state];
        if p.state_reads.get(&state) == Some(&src) {
            continue; // identity commit
        }
        let is_temp = pinned_v[src.index()].is_none() && coalesced_v[src.index()].is_none();
        if is_temp {
            let src_def = def_slot[src.index()].unwrap_or(0);
            let ok = match p.state_reads.get(&state) {
                None => true,
                Some(lv) => last_use[lv.index()].is_none_or(|lu| lu < src_def),
            };
            if ok {
                coalesced_v[src.index()] = Some(home);
            }
        }
    }

    // Linear scan for the remaining temporaries.
    let mut alloc_v: Vec<Option<Reg>> = vec![None; nv];
    let mut free: Vec<u16> = Vec::new();
    let mut next_fresh = temp_base;
    let mut active: Vec<(usize, VReg, Reg)> = Vec::new();
    let mut max_reg_used = temp_base.saturating_sub(1) as usize;
    for (t, slot) in slots.iter().enumerate() {
        let Some(i) = *slot else { continue };
        let Some(d) = p.instrs[i].dest else { continue };
        if pinned_v[d.index()].is_some() || coalesced_v[d.index()].is_some() {
            continue;
        }
        active.retain(|&(lu, _, r)| {
            if lu <= t {
                free.push(r.0);
                false
            } else {
                true
            }
        });
        let lu = last_use[d.index()].unwrap_or(t);
        let r = match free.pop() {
            Some(r) => Reg(r),
            None => {
                let r = next_fresh;
                next_fresh += 1;
                Reg(r)
            }
        };
        max_reg_used = max_reg_used.max(r.index());
        alloc_v[d.index()] = Some(r);
        if lu > t {
            active.push((lu, d, r));
        } else {
            free.push(r.0);
        }
    }
    if max_reg_used >= config.regfile_size {
        return Err(CompileError::RegfileOverflow {
            needed: max_reg_used + 1,
            capacity: config.regfile_size,
        });
    }

    Ok((0..nv)
        .map(|v| alloc_v[v].or(coalesced_v[v]).or(pinned_v[v]))
        .collect())
}

/// The machine register `v` was allocated in a process's view.
#[inline]
fn reg_of(view: &[Option<Reg>], v: VReg) -> Reg {
    view[v.index()].expect("vreg allocated")
}

/// Emits one process's body from its schedule and register view (the
/// view is the only allocation-dependent input).
fn emit_body(
    pi: usize,
    prog: &LirProgram,
    schedule: &Schedule,
    view: &[Option<Reg>],
    state_reg: &[BTreeMap<StateId, Reg>],
    cfu_tables: &[[u16; 16]],
    mem_base: &BTreeMap<u32, (usize, u16)>,
) -> (Vec<Instruction>, CoreBreakdown) {
    let p = &prog.processes[pi];
    let slots = &schedule.slots[pi];
    let body_len = schedule.body_len[pi];
    let reg = |v: VReg| -> Reg { reg_of(view, v) };
    let mut body = vec![Instruction::Nop; body_len];
    let mut breakdown = CoreBreakdown::default();

    // A commit is elided iff src's register IS the state's home register
    // (kept in lockstep with coalescing by sharing the view).
    for (t, slot) in slots.iter().enumerate() {
        let Some(i) = *slot else { continue };
        let instr = &p.instrs[i];
        let a = |k: usize| reg(instr.args[k]);
        match &instr.op {
            LirOp::Const(_) => unreachable!("constants are hoisted"),
            LirOp::Alu(op) => {
                body[t] = Instruction::Alu {
                    op: *op,
                    rd: reg(instr.dest.unwrap()),
                    rs1: a(0),
                    rs2: a(1),
                };
                breakdown.compute += 1;
            }
            LirOp::AddCarry => {
                body[t] = Instruction::AddCarry {
                    rd: reg(instr.dest.unwrap()),
                    rs1: a(0),
                    rs2: a(1),
                    rs_carry: a(2),
                };
                breakdown.compute += 1;
            }
            LirOp::SubBorrow => {
                body[t] = Instruction::SubBorrow {
                    rd: reg(instr.dest.unwrap()),
                    rs1: a(0),
                    rs2: a(1),
                    rs_borrow: a(2),
                };
                breakdown.compute += 1;
            }
            LirOp::Mux => {
                body[t] = Instruction::Mux {
                    rd: reg(instr.dest.unwrap()),
                    rs_sel: a(0),
                    rs1: a(1),
                    rs2: a(2),
                };
                breakdown.compute += 1;
            }
            LirOp::Slice { offset, width } => {
                body[t] = Instruction::Slice {
                    rd: reg(instr.dest.unwrap()),
                    rs: a(0),
                    offset: *offset,
                    width: *width,
                };
                breakdown.compute += 1;
            }
            LirOp::Custom { table } => {
                let func = cfu_tables.iter().position(|t2| t2 == table).unwrap();
                let mut rs = [Reg::ZERO; 4];
                for (k, &arg) in instr.args.iter().enumerate() {
                    rs[k] = reg(arg);
                }
                body[t] = Instruction::Custom {
                    rd: reg(instr.dest.unwrap()),
                    func: func as u8,
                    rs,
                };
                breakdown.compute += 1;
                breakdown.custom += 1;
            }
            LirOp::LocalLoad { mem, word_offset } => {
                let (_, base) = mem_base[&mem.0];
                body[t] = Instruction::LocalLoad {
                    rd: reg(instr.dest.unwrap()),
                    rs_addr: a(0),
                    base: base + word_offset,
                };
                breakdown.compute += 1;
            }
            LirOp::LocalStore { mem, word_offset } => {
                let (_, base) = mem_base[&mem.0];
                body[t] = Instruction::Predicate { rs: a(2) };
                body[t + 1] = Instruction::LocalStore {
                    rs_data: a(0),
                    rs_addr: a(1),
                    base: base + word_offset,
                };
                breakdown.compute += 2;
            }
            LirOp::GlobalLoad { .. } => {
                body[t] = Instruction::GlobalLoad {
                    rd: reg(instr.dest.unwrap()),
                    rs_addr: [a(0), a(1), a(2)],
                };
                breakdown.compute += 1;
            }
            LirOp::GlobalStore { .. } => {
                body[t] = Instruction::Predicate { rs: a(4) };
                body[t + 1] = Instruction::GlobalStore {
                    rs_data: a(0),
                    rs_addr: [a(1), a(2), a(3)],
                };
                breakdown.compute += 2;
            }
            LirOp::Expect { eid } => {
                body[t] = Instruction::Expect {
                    rs1: a(0),
                    rs2: a(1),
                    eid: *eid,
                };
                breakdown.compute += 1;
            }
            LirOp::CommitLocal { state } => {
                let home = state_reg[pi][state];
                let src = reg(instr.args[0]);
                if src != home {
                    body[t] = Instruction::Alu {
                        op: AluOp::Or,
                        rd: home,
                        rs1: src,
                        rs2: Reg::ZERO,
                    };
                    breakdown.compute += 1;
                }
            }
            LirOp::Send { state, to_process } => {
                let target = schedule.core_of_process[*to_process];
                let rd_remote = state_reg[*to_process][state];
                body[t] = Instruction::Send {
                    target,
                    rd_remote,
                    rs: a(0),
                };
                breakdown.sends += 1;
            }
        }
    }
    (body, breakdown)
}
