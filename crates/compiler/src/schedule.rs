//! List scheduling with pipeline-hazard and NoC-routing models (§6.3).
//!
//! The scheduler performs "an abstract cycle-accurate simulation of one
//! Vcycle using a model of a core's pipeline and the NoC": every core
//! issues at most one instruction per cycle; an instruction is ready when
//! its operands were produced at least `hazard_latency` cycles earlier; a
//! `Send` additionally requires its entire dimension-ordered route (and the
//! delivery port into the target's instruction memory) to be collision-free
//! — the same reservation discipline the machine model validates.
//!
//! Constants are hoisted out before scheduling: they are Vcycle-invariant
//! and become boot-time register initialization.
//!
//! # Parallel structure and determinism
//!
//! [`schedule`] splits the pass into per-process dependency-graph
//! construction (independent across processes — fans out over the worker
//! pool) and the global cycle-stepped issue loop, which stays serial: it
//! *is* the NoC arbitration semantics (cores compete for link
//! reservations cycle by cycle, in core order), so its decision order is
//! the specification, not an implementation detail. Graph results land
//! in process-index slots, so the schedule is bit-identical at any thread
//! count.
//!
//! The graph builder finds commit anti-edges through per-vreg use lists
//! and keeps its def table in a vector. The test oracle in `oracle.rs`
//! scans every instruction per commit and keeps its defs in a hash map.
//! The two can order a node's successor *list* differently, but they
//! produce the same edge **multiset**, and every consumer is
//! order-insensitive: `indeg` counts
//! edges, `priority` and earliest-start times are maxima over
//! predecessors/successors, and the ready heap pops the unique maximum
//! `(priority, index)` tuple regardless of insertion order. A unit test
//! holds both builders to the same edge multisets and the same schedule
//! on every workload.

use std::collections::HashMap;

use manticore_isa::{CoreId, MachineConfig};
use manticore_util::{parallel_map, FnvHashMap};

use crate::error::CompileError;
use crate::lir::{LirOp, LirProgram, Process, VReg};

/// A scheduled program: placement, per-core slot assignment, Vcycle framing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Core of each process.
    pub core_of_process: Vec<CoreId>,
    /// Per process: instruction index occupying each body slot (`None` is a
    /// NOP). Two-slot stores occupy their issue slot; the following slot is
    /// left `None` and filled with the store half at emission.
    pub slots: Vec<Vec<Option<usize>>>,
    /// Per process: body length including NOP padding for late arrivals.
    pub body_len: Vec<usize>,
    /// Per process: messages received per Vcycle.
    pub epilogue_len: Vec<usize>,
    /// Machine cycles per Vcycle (the VCPL).
    pub vcycle_len: u64,
    /// Per process: constants hoisted to boot time.
    pub const_vregs: Vec<HashMap<VReg, u16>>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Link {
    XPlus(u8, u8),
    YPlus(u8, u8),
    Delivery(u8, u8),
}

/// Per-process dependency graph over scheduled (non-`Const`) instructions.
pub(crate) struct ProcGraph {
    /// successor lists: (to, latency)
    pub(crate) succs: Vec<Vec<(usize, u64)>>,
    pub(crate) indeg: Vec<u32>,
    pub(crate) priority: Vec<u64>,
    /// instructions that take part in scheduling (non-Const)
    pub(crate) active: Vec<bool>,
    pub(crate) consts: HashMap<VReg, u16>,
}

/// Schedules a partitioned program, building the per-process dependency
/// graphs on `threads` workers. Output is bit-identical at any thread
/// count (see the module docs for why).
///
/// # Errors
///
/// [`CompileError::TooManyProcesses`] if processes exceed cores and
/// [`CompileError::ImemOverflow`] if a body outgrows instruction memory.
pub fn schedule(
    prog: &LirProgram,
    config: &MachineConfig,
    threads: usize,
) -> Result<Schedule, CompileError> {
    let ncores = config.num_cores();
    let nproc = prog.processes.len();
    if nproc > ncores {
        return Err(CompileError::TooManyProcesses {
            processes: nproc,
            cores: ncores,
        });
    }

    let lat = config.hazard_latency as u64;
    let graphs = parallel_map(nproc, threads, |pi| build_graph(&prog.processes[pi], lat));
    issue(prog, config, graphs)
}

/// Places the processes and runs the serial cycle-stepped issue loop over
/// their dependency graphs, then frames the Vcycle.
///
/// # Errors
///
/// [`CompileError::ImemOverflow`] if a body outgrows instruction memory.
pub(crate) fn issue(
    prog: &LirProgram,
    config: &MachineConfig,
    graphs: Vec<ProcGraph>,
) -> Result<Schedule, CompileError> {
    let nproc = prog.processes.len();
    let lat = config.hazard_latency as u64;

    // ------------------------------------------------------------------
    // Placement: privileged process on the privileged core; the rest by
    // descending cost in row-major order.
    // ------------------------------------------------------------------
    let core_at = |linear: usize| {
        CoreId::new(
            (linear % config.grid_width) as u8,
            (linear / config.grid_width) as u8,
        )
    };
    let mut core_of_process = vec![CoreId::new(0, 0); nproc];
    let priv_idx = prog.processes.iter().position(|p| p.is_privileged);
    let mut order: Vec<usize> = (0..nproc).filter(|&i| Some(i) != priv_idx).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(prog.processes[i].cost()));
    let mut next_linear = 0;
    if let Some(pi) = priv_idx {
        core_of_process[pi] = CoreId::PRIVILEGED;
        next_linear = 1;
    }
    for i in order {
        core_of_process[i] = core_at(next_linear);
        next_linear += 1;
    }

    // ------------------------------------------------------------------
    // Global cycle-stepped issue.
    //
    // An instruction's earliest-start time is final once its last
    // predecessor is scheduled, so ready instructions sit either in a
    // priority heap (startable now) or in time buckets keyed by their
    // earliest start.
    // ------------------------------------------------------------------
    use std::collections::{BTreeMap, BinaryHeap};
    let mut slots: Vec<Vec<Option<usize>>> = vec![Vec::new(); nproc];
    let mut remaining: Vec<usize> = graphs
        .iter()
        .map(|g| g.active.iter().filter(|&&a| a).count())
        .collect();
    let mut est: Vec<Vec<u64>> = graphs.iter().map(|g| vec![0u64; g.indeg.len()]).collect();
    let mut indeg: Vec<Vec<u32>> = graphs.iter().map(|g| g.indeg.clone()).collect();
    let mut busy_until: Vec<u64> = vec![0; nproc];
    // Heap entries: (priority, instr) — max-heap by priority.
    let mut ready: Vec<BinaryHeap<(u64, usize)>> = vec![BinaryHeap::new(); nproc];
    let mut pending: Vec<BTreeMap<u64, Vec<usize>>> = vec![BTreeMap::new(); nproc];
    for pi in 0..nproc {
        for i in 0..graphs[pi].indeg.len() {
            if graphs[pi].active[i] && graphs[pi].indeg[i] == 0 {
                ready[pi].push((graphs[pi].priority[i], i));
            }
        }
    }
    // Link reservations: a set keyed by (link, cycle). The hasher only
    // affects bucket order, never membership, so it is determinism-safe.
    let mut links: FnvHashMap<(Link, u64), ()> = FnvHashMap::default();
    let mut arrivals: Vec<Vec<u64>> = vec![Vec::new(); nproc];
    let inj = config.injection_latency as u64;
    let hop = config.hop_latency as u64;

    let mut total_remaining: usize = remaining.iter().sum();
    let mut t: u64 = 0;
    while total_remaining > 0 {
        for pi in 0..nproc {
            if remaining[pi] == 0 || busy_until[pi] > t {
                continue;
            }
            // Promote pending instructions whose earliest start has come.
            while let Some((&et, _)) = pending[pi].iter().next() {
                if et > t {
                    break;
                }
                let (_, is) = pending[pi].pop_first().unwrap();
                for i in is {
                    ready[pi].push((graphs[pi].priority[i], i));
                }
            }
            // Pick the best ready instruction; Sends may be blocked by link
            // contention, in which case we try the next candidate.
            let mut stash: Vec<(u64, usize)> = Vec::new();
            let mut chosen: Option<usize> = None;
            while let Some((prio, c)) = ready[pi].pop() {
                if let LirOp::Send { to_process, .. } = prog.processes[pi].instrs[c].op {
                    let from = core_of_process[pi];
                    let to = core_of_process[to_process];
                    let path = route(from, to, config);
                    let free = path
                        .iter()
                        .enumerate()
                        .all(|(k, l)| !links.contains_key(&(*l, t + inj + k as u64 * hop)));
                    if !free {
                        stash.push((prio, c));
                        continue;
                    }
                    for (k, l) in path.iter().enumerate() {
                        links.insert((*l, t + inj + k as u64 * hop), ());
                    }
                    let arrive = t + inj + (path.len() as u64 - 1) * hop;
                    arrivals[to_process].push(arrive);
                }
                chosen = Some(c);
                break;
            }
            for e in stash {
                ready[pi].push(e);
            }
            if let Some(c) = chosen {
                let islots = prog.processes[pi].instrs[c].op.issue_slots() as u64;
                while (slots[pi].len() as u64) < t {
                    slots[pi].push(None);
                }
                slots[pi].push(Some(c));
                for _ in 1..islots {
                    slots[pi].push(None); // second half of a store
                }
                busy_until[pi] = t + islots;
                remaining[pi] -= 1;
                total_remaining -= 1;
                for &(s, l) in &graphs[pi].succs[c] {
                    indeg[pi][s] -= 1;
                    est[pi][s] = est[pi][s].max(t + l);
                    if indeg[pi][s] == 0 {
                        let e = est[pi][s];
                        if e <= t {
                            ready[pi].push((graphs[pi].priority[s], s));
                        } else {
                            pending[pi].entry(e).or_default().push(s);
                        }
                    }
                }
            }
        }
        t += 1;
        assert!(t < 50_000_000, "scheduler failed to converge");
    }

    // ------------------------------------------------------------------
    // Vcycle framing: pad bodies so every message arrives before its
    // epilogue slot executes, then fix the global length.
    // ------------------------------------------------------------------
    let mut body_len: Vec<usize> = slots.iter().map(|s| s.len()).collect();
    let mut epilogue_len = vec![0usize; nproc];
    for pi in 0..nproc {
        arrivals[pi].sort_unstable();
        epilogue_len[pi] = arrivals[pi].len();
        for (j, &a) in arrivals[pi].iter().enumerate() {
            let need = a.saturating_sub(j as u64) as usize;
            body_len[pi] = body_len[pi].max(need);
        }
    }
    let mut vcycle_len = 0u64;
    for pi in 0..nproc {
        let footprint = body_len[pi] + epilogue_len[pi];
        if footprint > config.imem_capacity {
            return Err(CompileError::ImemOverflow {
                needed: footprint,
                capacity: config.imem_capacity,
            });
        }
        vcycle_len = vcycle_len.max(footprint as u64);
    }
    vcycle_len += lat + 1; // sleep: drain in-flight writes before wrapping

    Ok(Schedule {
        core_of_process,
        slots,
        body_len,
        epilogue_len,
        vcycle_len,
        const_vregs: graphs.into_iter().map(|g| g.consts).collect(),
    })
}

/// Dependency-graph construction: vector-indexed def table and per-vreg
/// use lists. Produces the same edge multiset as the test oracle
/// `build_graph_ref` (one scan per commit, hash-map def table) — data
/// edges carry one entry per argument *occurrence* (use lists are built
/// per occurrence), and commit anti-edges carry one entry per reading
/// *instruction* (consecutive duplicates in a use list are collapsed;
/// occurrences of one instruction are adjacent because the list is built
/// in instruction-then-argument order). Successor-list order may differ;
/// every consumer is order-insensitive (see module docs).
pub(crate) fn build_graph(p: &Process, lat: u64) -> ProcGraph {
    let n = p.instrs.len();
    let nv = p.num_vregs as usize;
    let mut def_of: Vec<Option<usize>> = vec![None; nv];
    let mut consts: HashMap<VReg, u16> = HashMap::new();
    let mut active = vec![true; n];
    for (i, instr) in p.instrs.iter().enumerate() {
        if let LirOp::Const(v) = instr.op {
            consts.insert(instr.dest.unwrap(), v);
            active[i] = false;
            continue;
        }
        if let Some(d) = instr.dest {
            def_of[d.index()] = Some(i);
        }
    }
    // Per-vreg use lists over active instructions, one entry per argument
    // occurrence, in instruction-then-argument order.
    let mut uses: Vec<Vec<usize>> = vec![Vec::new(); nv];
    for (i, instr) in p.instrs.iter().enumerate() {
        if !active[i] {
            continue;
        }
        for a in &instr.args {
            uses[a.index()].push(i);
        }
    }
    let mut succs: Vec<Vec<(usize, u64)>> = vec![Vec::new(); n];
    let mut indeg = vec![0u32; n];
    let add_edge = |succs: &mut Vec<Vec<(usize, u64)>>,
                    indeg: &mut Vec<u32>,
                    from: usize,
                    to: usize,
                    l: u64| {
        if from != to {
            succs[from].push((to, l));
            indeg[to] += 1;
        }
    };
    // Data edges: one per use-list entry (= per argument occurrence).
    for (v, vuses) in uses.iter().enumerate() {
        if let Some(d) = def_of[v] {
            for &i in vuses {
                add_edge(&mut succs, &mut indeg, d, i, lat);
            }
        }
    }
    // Anti edges.
    use std::collections::BTreeMap;
    let mut mem_loads: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    let mut mem_stores: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    let mut expects: Vec<usize> = Vec::new();
    for (i, instr) in p.instrs.iter().enumerate() {
        if !active[i] {
            continue;
        }
        match &instr.op {
            LirOp::LocalLoad { mem, .. } | LirOp::GlobalLoad { mem } => {
                mem_loads.entry(mem.0).or_default().push(i)
            }
            LirOp::LocalStore { mem, .. } | LirOp::GlobalStore { mem } => {
                mem_stores.entry(mem.0).or_default().push(i)
            }
            LirOp::Expect { .. } => expects.push(i),
            LirOp::CommitLocal { state } => {
                // One anti-edge per instruction reading the state's
                // current value, regardless of how many of its arguments
                // read it — collapse consecutive duplicates.
                if let Some(lv) = p.state_reads.get(state) {
                    let mut last = usize::MAX;
                    for &j in &uses[lv.index()] {
                        if j != i && j != last {
                            add_edge(&mut succs, &mut indeg, j, i, 1);
                            last = j;
                        }
                    }
                }
            }
            _ => {}
        }
    }
    for (m, stores) in &mem_stores {
        if let Some(loads) = mem_loads.get(m) {
            for &l in loads {
                for &s in stores {
                    add_edge(&mut succs, &mut indeg, l, s, 1);
                }
            }
        }
        for w in stores.windows(2) {
            add_edge(&mut succs, &mut indeg, w[0], w[1], 2);
        }
    }
    for w in expects.windows(2) {
        add_edge(&mut succs, &mut indeg, w[0], w[1], 1);
    }

    finish_graph(p, succs, indeg, active, consts)
}

/// Critical-path priorities over the built edge set (shared with the
/// test oracle's builder). The longest-path fixpoint is the same for any
/// valid topological order, so differing successor orders cannot change
/// priorities.
pub(crate) fn finish_graph(
    p: &Process,
    succs: Vec<Vec<(usize, u64)>>,
    indeg: Vec<u32>,
    active: Vec<bool>,
    consts: HashMap<VReg, u16>,
) -> ProcGraph {
    let n = p.instrs.len();
    let mut priority = vec![0u64; n];
    let topo = topo_order(n, &active, &succs, &indeg);
    for &i in topo.iter().rev() {
        let mut h = p.instrs[i].op.issue_slots() as u64;
        for &(s, l) in &succs[i] {
            h = h.max(priority[s] + l);
        }
        priority[i] = h;
    }
    ProcGraph {
        succs,
        indeg,
        priority,
        active,
        consts,
    }
}

fn topo_order(n: usize, active: &[bool], succs: &[Vec<(usize, u64)>], indeg: &[u32]) -> Vec<usize> {
    let mut indeg = indeg.to_vec();
    let mut stack: Vec<usize> = (0..n).filter(|&i| active[i] && indeg[i] == 0).collect();
    let mut out = Vec::with_capacity(n);
    while let Some(i) = stack.pop() {
        out.push(i);
        for &(s, _) in &succs[i] {
            indeg[s] -= 1;
            if indeg[s] == 0 {
                stack.push(s);
            }
        }
    }
    out
}

/// Dimension-ordered route (X then Y) ending with the delivery port —
/// identical to the machine model's path enumeration.
fn route(from: CoreId, to: CoreId, config: &MachineConfig) -> Vec<Link> {
    let mut links = Vec::new();
    let mut x = from.x as usize;
    let mut y = from.y as usize;
    while x != to.x as usize {
        links.push(Link::XPlus(x as u8, y as u8));
        x = (x + 1) % config.grid_width;
    }
    while y != to.y as usize {
        links.push(Link::YPlus(x as u8, y as u8));
        y = (y + 1) % config.grid_height;
    }
    links.push(Link::Delivery(to.x, to.y));
    links
}
