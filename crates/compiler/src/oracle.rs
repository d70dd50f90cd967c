//! Test oracles for the three heavy passes and custom-function synthesis,
//! and the tests that hold the production passes to them.
//!
//! Each oracle is the straightforward version of a pass whose production
//! algorithm is faster but must make the same decisions: the balanced
//! merge recomputing every cost from first principles
//! ([`crate::partition`]), the dependency-graph builder scanning the
//! whole process per commit ([`crate::schedule`]), the hash-map
//! register allocator ([`crate::regalloc`]), and the hash-map,
//! per-lane-recursive custom-function synthesis ([`crate::cfu`]). The
//! compile-determinism suites only compare the production pipeline with
//! itself across thread counts; these tests compare it with the oracles,
//! per pass, on the nine workloads and `soc_sized(4, 3, 2000)` at 6×6
//! plus the seeded random netlists of [`crate::tests`]; synthesis is
//! also compared on noc and bc at 15×15, where the cut sets are largest.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::OnceLock;

use manticore_isa::{AluOp, MachineConfig, Reg};
use manticore_util::SmallRng;

use crate::bitset::BitSet;
use crate::cfu::{self, CfuStats, MASKS};
use crate::error::CompileError;
use crate::lir::{LirInstr, LirOp, LirProgram, Process, StateId, VReg};
use crate::partition::{self, send_count, Unit};
use crate::pass::{CompileControl, CompileCtx, PassManager};
use crate::regalloc;
use crate::schedule::{self, finish_graph, ProcGraph, Schedule};
use crate::tests::{cfu_input, options, random_netlist};
use crate::{CompileOptions, PartitionStrategy};

// ---------------------------------------------------------------------
// The oracles.
// ---------------------------------------------------------------------

/// The balanced merge from first principles: every iteration recomputes
/// each live unit's cost and each candidate's merged cost by rescanning
/// all units.
fn merge_balanced_ref(mut units: Vec<Unit>, num_cores: usize, instr_cost: &[usize]) -> Vec<BitSet> {
    let mut alive = vec![true; units.len()];
    loop {
        let live: Vec<usize> = (0..units.len()).filter(|&i| alive[i]).collect();
        if live.len() <= 1 {
            break;
        }
        let must_merge = live.len() > num_cores;
        let cost = |i: usize, units: &[Unit], alive: &[bool]| {
            units[i].base_cost + send_count(i, units, alive)
        };
        // Cheapest live unit.
        let &u = live
            .iter()
            .min_by_key(|&&i| cost(i, &units, &alive))
            .unwrap();
        // Communicating partners.
        let partners: Vec<usize> = live
            .iter()
            .copied()
            .filter(|&v| {
                v != u
                    && (units[u].commits.iter().any(|s| units[v].reads.contains(s))
                        || units[v].commits.iter().any(|s| units[u].reads.contains(s)))
            })
            .collect();
        let candidates = if partners.is_empty() {
            live.iter().copied().filter(|&v| v != u).collect::<Vec<_>>()
        } else {
            partners
        };
        // Merged cost of u+v: deduped instructions + sends of the union.
        let merged_cost = |v: usize, units: &[Unit], alive: &[bool]| -> usize {
            let mut base = 0usize;
            // weighted union popcount
            let set = &units[u].instrs;
            let other = &units[v].instrs;
            for i in set.iter() {
                base += instr_cost[i];
            }
            for i in other.iter() {
                if !set.contains(i) {
                    base += instr_cost[i];
                }
            }
            let mut sends = 0;
            for s in units[u].commits.iter().chain(units[v].commits.iter()) {
                for (w, ww) in units.iter().enumerate() {
                    if w != u && w != v && alive[w] && ww.reads.contains(s) {
                        sends += 1;
                    }
                }
            }
            base + sends
        };
        let best = candidates
            .iter()
            .map(|&v| (merged_cost(v, &units, &alive), v))
            .min();
        let Some((best_cost, v)) = best else { break };
        if !must_merge {
            let straggler = live.iter().map(|&i| cost(i, &units, &alive)).max().unwrap();
            if best_cost > straggler {
                break;
            }
        }
        // Merge v into u.
        let vv = units[v].clone();
        units[u].instrs.union_with(&vv.instrs);
        units[u].base_cost = units[u].instrs.iter().map(|i| instr_cost[i]).sum();
        units[u].commits.extend(vv.commits.iter().copied());
        units[u].reads.extend(vv.reads.iter().copied());
        alive[v] = false;
    }
    units
        .into_iter()
        .zip(alive)
        .filter_map(|(un, a)| a.then_some(un.instrs))
        .collect()
}

/// Dependency-graph construction with a hash-map def table and one scan
/// of the whole process per commit for its anti-edges.
fn build_graph_ref(p: &Process, lat: u64) -> ProcGraph {
    let n = p.instrs.len();
    let mut def_of: HashMap<VReg, usize> = HashMap::new();
    let mut consts: HashMap<VReg, u16> = HashMap::new();
    let mut active = vec![true; n];
    for (i, instr) in p.instrs.iter().enumerate() {
        if let LirOp::Const(v) = instr.op {
            consts.insert(instr.dest.unwrap(), v);
            active[i] = false;
            continue;
        }
        if let Some(d) = instr.dest {
            def_of.insert(d, i);
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
    // Data edges.
    for (i, instr) in p.instrs.iter().enumerate() {
        if !active[i] {
            continue;
        }
        for a in &instr.args {
            if let Some(&d) = def_of.get(a) {
                add_edge(&mut succs, &mut indeg, d, i, lat);
            }
        }
    }
    // Anti edges.
    let livein_of: HashMap<StateId, VReg> = p.state_reads.iter().map(|(&s, &v)| (s, v)).collect();
    let mut mem_loads: HashMap<u32, Vec<usize>> = HashMap::new();
    let mut mem_stores: HashMap<u32, Vec<usize>> = HashMap::new();
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
                // The commit overwrites the state's home register: it
                // must issue after every reader of the current value.
                if let Some(lv) = livein_of.get(state) {
                    for (j, other) in p.instrs.iter().enumerate() {
                        if j != i && active[j] && other.args.contains(lv) {
                            add_edge(&mut succs, &mut indeg, j, i, 1);
                        }
                    }
                }
            }
            _ => {}
        }
    }
    // All loads of a memory before all its stores (reads see pre-cycle
    // contents); stores keep program order.
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
    // Exceptions fire in program order (deterministic $display order).
    for w in expects.windows(2) {
        add_edge(&mut succs, &mut indeg, w[0], w[1], 1);
    }

    finish_graph(p, succs, indeg, active, consts)
}

/// Per-process allocation with hash-map lookup structures: liveness,
/// commit coalescing, linear scan.
fn alloc_process_ref(
    p: &Process,
    slots: &[Option<usize>],
    pinned: &HashMap<VReg, Reg>,
    state_reg: &BTreeMap<StateId, Reg>,
    temp_base: u16,
    config: &MachineConfig,
) -> Result<HashMap<VReg, Reg>, CompileError> {
    // Liveness over scheduled positions.
    let mut def_slot: HashMap<VReg, usize> = HashMap::new();
    let mut last_use: HashMap<VReg, usize> = HashMap::new();
    for (t, slot) in slots.iter().enumerate() {
        let Some(i) = *slot else { continue };
        let instr = &p.instrs[i];
        let read_at = t + instr.op.issue_slots() - 1;
        for &a in &instr.args {
            let e = last_use.entry(a).or_insert(read_at);
            *e = (*e).max(read_at);
        }
        if let Some(d) = instr.dest {
            def_slot.insert(d, t);
        }
    }

    // Commit coalescing.
    let mut elided_commits: BTreeSet<usize> = BTreeSet::new();
    let mut coalesced: HashMap<VReg, Reg> = HashMap::new();
    for (t, slot) in slots.iter().enumerate() {
        let Some(i) = *slot else { continue };
        let LirOp::CommitLocal { state } = p.instrs[i].op else {
            continue;
        };
        let src = p.instrs[i].args[0];
        let home = state_reg[&state];
        // Identity commit: the next value IS the current value.
        if p.state_reads.get(&state) == Some(&src) {
            elided_commits.insert(i);
            continue;
        }
        // Coalesce: src is an unpinned temp whose definition runs after
        // every read of the current value.
        let is_temp = !pinned.contains_key(&src) && !coalesced.contains_key(&src);
        if is_temp {
            let src_def = def_slot.get(&src).copied().unwrap_or(0);
            let ok = match p.state_reads.get(&state) {
                None => true,
                Some(lv) => last_use.get(lv).is_none_or(|&lu| lu < src_def),
            };
            if ok {
                coalesced.insert(src, home);
                elided_commits.insert(i);
            }
        }
        let _ = t;
    }

    // Linear scan for the remaining temporaries.
    let mut alloc: HashMap<VReg, Reg> = HashMap::new();
    let mut free: Vec<u16> = Vec::new();
    let mut next_fresh = temp_base;
    let mut active: Vec<(usize, VReg, Reg)> = Vec::new(); // (last_use, vreg, reg)
    let mut max_reg_used = temp_base.saturating_sub(1) as usize;
    for (t, slot) in slots.iter().enumerate() {
        let Some(i) = *slot else { continue };
        let Some(d) = p.instrs[i].dest else { continue };
        if pinned.contains_key(&d) || coalesced.contains_key(&d) {
            continue;
        }
        // Expire.
        active.retain(|&(lu, _, r)| {
            if lu <= t {
                free.push(r.0);
                false
            } else {
                true
            }
        });
        let lu = last_use.get(&d).copied().unwrap_or(t);
        let r = match free.pop() {
            Some(r) => Reg(r),
            None => {
                let r = next_fresh;
                next_fresh += 1;
                Reg(r)
            }
        };
        max_reg_used = max_reg_used.max(r.index());
        alloc.insert(d, r);
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

    // Final vreg -> machine reg view.
    let mut reg_of: HashMap<VReg, Reg> = HashMap::new();
    reg_of.extend(pinned.iter().map(|(&v, &r)| (v, r)));
    reg_of.extend(coalesced.iter().map(|(&v, &r)| (v, r)));
    reg_of.extend(alloc.iter().map(|(&v, &r)| (v, r)));
    Ok(reg_of)
}

/// A candidate cone: a root logic instruction plus interior nodes.
#[derive(Debug, Clone)]
struct Cone {
    root: usize,
    /// Interior instruction indices (including the root).
    interior: Vec<usize>,
    /// Non-constant leaf vregs (≤ 4), in truth-table input order.
    leaves: Vec<VReg>,
    table: [u16; 16],
    savings: usize,
}

/// Custom-function synthesis as first written: hash-map def/use tables,
/// `Vec<Vec<VReg>>` cuts deduplicated by a linear `contains`, two hash
/// sets per cone, and a recursive, memoised truth-table walk run once per
/// lane.
fn synthesize_ref(proc: &mut Process, max_tables: usize) -> CfuStats {
    let n = proc.instrs.len();
    let mut def_of: HashMap<VReg, usize> = HashMap::new();
    for (i, instr) in proc.instrs.iter().enumerate() {
        if let Some(d) = instr.dest {
            def_of.insert(d, i);
        }
    }
    // Known constants (for per-lane absorption).
    let mut const_val: HashMap<VReg, u16> = HashMap::new();
    for instr in &proc.instrs {
        if let (LirOp::Const(v), Some(d)) = (&instr.op, instr.dest) {
            const_val.insert(d, *v);
        }
    }
    // Use lists.
    let mut uses: HashMap<VReg, Vec<usize>> = HashMap::new();
    for (i, instr) in proc.instrs.iter().enumerate() {
        for &a in &instr.args {
            uses.entry(a).or_default().push(i);
        }
    }
    let is_logic = |i: usize| proc.instrs[i].op.is_bitwise_logic();

    // --- Cut enumeration -------------------------------------------------
    // cuts[i]: list of leaf sets (non-const vregs, sorted, ≤4).
    const MAX_CUTS: usize = 12;
    let mut cuts: Vec<Vec<Vec<VReg>>> = vec![Vec::new(); n];
    for i in 0..n {
        if !is_logic(i) {
            continue;
        }
        // Per-operand choice: either the operand as a leaf, or (if the
        // operand is itself a logic node) each of its cuts.
        let mut operand_choices: Vec<Vec<Vec<VReg>>> = Vec::new();
        for &a in &proc.instrs[i].args {
            let mut choices: Vec<Vec<VReg>> = Vec::new();
            if const_val.contains_key(&a) {
                choices.push(vec![]); // constants never consume an input
            } else {
                choices.push(vec![a]);
                if let Some(&d) = def_of.get(&a) {
                    if is_logic(d) {
                        choices.extend(cuts[d].iter().cloned());
                    }
                }
            }
            operand_choices.push(choices);
        }
        let mut mine: Vec<Vec<VReg>> = vec![vec![]];
        for choices in &operand_choices {
            let mut next = Vec::new();
            for base in &mine {
                for c in choices {
                    let mut merged: Vec<VReg> = base.clone();
                    for &l in c {
                        if !merged.contains(&l) {
                            merged.push(l);
                        }
                    }
                    if merged.len() <= 4 {
                        merged.sort_unstable();
                        if !next.contains(&merged) {
                            next.push(merged);
                        }
                    }
                }
            }
            mine = next;
            if mine.len() > MAX_CUTS * 4 {
                mine.truncate(MAX_CUTS * 4);
            }
        }
        mine.sort_by_key(|c| c.len());
        mine.dedup();
        mine.truncate(MAX_CUTS);
        cuts[i] = mine;
    }

    // --- Cone construction + MFFC filter + truth tables ------------------
    let mut candidates: Vec<Cone> = Vec::new();
    for (root, root_cuts) in cuts.iter().enumerate().take(n) {
        if !is_logic(root) {
            continue;
        }
        for cut in root_cuts {
            let leaf_set: HashSet<VReg> = cut.iter().copied().collect();
            // Collect interior nodes: walk back from root until leaves.
            let mut interior: Vec<usize> = Vec::new();
            let mut stack = vec![root];
            let mut seen: HashSet<usize> = HashSet::new();
            seen.insert(root);
            let mut ok = true;
            while let Some(i) = stack.pop() {
                interior.push(i);
                for &a in &proc.instrs[i].args {
                    if leaf_set.contains(&a) || const_val.contains_key(&a) {
                        continue;
                    }
                    match def_of.get(&a) {
                        Some(&d) if is_logic(d) => {
                            if seen.insert(d) {
                                stack.push(d);
                            }
                        }
                        // A non-logic, non-leaf operand: this cut is not a
                        // closed cone over logic ops.
                        _ => {
                            ok = false;
                        }
                    }
                }
            }
            if !ok || interior.len() < 2 {
                continue; // no saving from a single instruction
            }
            // MFFC: no interior node except the root may be used outside.
            let interior_set: HashSet<usize> = interior.iter().copied().collect();
            let escapes = interior.iter().any(|&i| {
                if i == root {
                    return false;
                }
                let d = proc.instrs[i].dest.unwrap();
                uses.get(&d)
                    .map(|us| us.iter().any(|u| !interior_set.contains(u)))
                    .unwrap_or(false)
            });
            if escapes {
                continue;
            }
            // Truth table per lane.
            let table = match eval_cone(proc, root, &interior_set, cut, &const_val, &def_of) {
                Some(t) => t,
                None => continue,
            };
            candidates.push(Cone {
                root,
                interior: interior.clone(),
                leaves: cut.clone(),
                table,
                savings: interior.len() - 1,
            });
        }
    }

    // --- Selection (greedy stand-in for the paper's MILP) ---------------
    candidates.sort_by_key(|c| std::cmp::Reverse(c.savings));
    let mut claimed: HashSet<usize> = HashSet::new();
    let mut tables: Vec<[u16; 16]> = Vec::new();
    let mut chosen: Vec<Cone> = Vec::new();
    for cone in candidates {
        if cone.interior.iter().any(|i| claimed.contains(i)) {
            continue;
        }
        let table_known = tables.contains(&cone.table);
        if !table_known && tables.len() >= max_tables {
            continue;
        }
        if !table_known {
            tables.push(cone.table);
        }
        claimed.extend(cone.interior.iter().copied());
        chosen.push(cone);
    }

    // --- Rewrite ----------------------------------------------------------
    let mut stats = CfuStats {
        fused: chosen.len(),
        removed: chosen.iter().map(|c| c.interior.len()).sum(),
        tables: tables.len(),
    };
    if chosen.is_empty() {
        stats.tables = 0;
        return stats;
    }
    for cone in &chosen {
        let dest = proc.instrs[cone.root].dest;
        proc.instrs[cone.root] = LirInstr {
            dest,
            op: LirOp::Custom { table: cone.table },
            args: cone.leaves.clone(),
        };
        // Interior nodes become dead; DCE removes them.
    }
    stats
}

/// Evaluates the cone over the canonical masks, per lane. Returns `None`
/// when evaluation hits an unsupported op (defensive; interiors are logic).
fn eval_cone(
    proc: &Process,
    root: usize,
    interior: &HashSet<usize>,
    leaves: &[VReg],
    const_val: &HashMap<VReg, u16>,
    def_of: &HashMap<VReg, usize>,
) -> Option<[u16; 16]> {
    let mut table = [0u16; 16];
    for (lane, t) in table.iter_mut().enumerate() {
        // Value of each vreg in truth-table space for this lane.
        let mut memo: HashMap<VReg, u16> = HashMap::new();
        for (k, &l) in leaves.iter().enumerate() {
            memo.insert(l, MASKS[k]);
        }
        fn eval(
            v: VReg,
            lane: usize,
            proc: &Process,
            interior: &HashSet<usize>,
            const_val: &HashMap<VReg, u16>,
            def_of: &HashMap<VReg, usize>,
            memo: &mut HashMap<VReg, u16>,
        ) -> Option<u16> {
            if let Some(&x) = memo.get(&v) {
                return Some(x);
            }
            if let Some(&c) = const_val.get(&v) {
                // Constant: this lane's bit replicated across table space.
                let bit = (c >> lane) & 1;
                let x = if bit == 1 { 0xffff } else { 0x0000 };
                memo.insert(v, x);
                return Some(x);
            }
            let d = *def_of.get(&v)?;
            if !interior.contains(&d) {
                return None;
            }
            let instr = &proc.instrs[d];
            let a = eval(instr.args[0], lane, proc, interior, const_val, def_of, memo)?;
            let b = eval(instr.args[1], lane, proc, interior, const_val, def_of, memo)?;
            let x = match instr.op {
                LirOp::Alu(AluOp::And) => a & b,
                LirOp::Alu(AluOp::Or) => a | b,
                LirOp::Alu(AluOp::Xor) => a ^ b,
                _ => return None,
            };
            memo.insert(v, x);
            Some(x)
        }
        let root_v = proc.instrs[root].dest?;
        *t = eval(root_v, lane, proc, interior, const_val, def_of, &mut memo)?;
    }
    Some(table)
}

// ---------------------------------------------------------------------
// The comparisons.
// ---------------------------------------------------------------------

/// One design compiled through the standard pipeline, keeping each heavy
/// pass's input and the schedule it produced.
struct Compiled {
    name: String,
    config: MachineConfig,
    partition: PartitionStrategy,
    /// The partition pass's input (after `lir-opt`).
    mono: LirProgram,
    /// The schedule and regalloc passes' input (after `custom-functions`).
    parted: LirProgram,
    schedule: Schedule,
}

/// The designs every comparison runs on, compiled once per test binary.
fn suite() -> &'static [Compiled] {
    static SUITE: OnceLock<Vec<Compiled>> = OnceLock::new();
    SUITE.get_or_init(|| {
        let grid6 = CompileOptions {
            config: MachineConfig::with_grid(6, 6),
            ..Default::default()
        };
        let mut designs: Vec<(String, manticore_netlist::Netlist, CompileOptions)> =
            manticore_workloads::all()
                .into_iter()
                .map(|w| (w.name.to_string(), w.netlist, grid6.clone()))
                .collect();
        designs.push((
            "soc-4x3".into(),
            manticore_workloads::soc_sized(4, 3, 2000),
            grid6,
        ));
        // The seeds and grids of the random-design tests in `tests.rs`.
        for seed in [7u64, 21, 42] {
            designs.push((
                format!("random-{seed}"),
                random_netlist(seed, 60),
                options(4),
            ));
        }
        let mut rng = SmallRng::seed_from_u64(0x31);
        for _ in 0..12 {
            let seed = rng.next_u64();
            let ops = rng.gen_range(10..70);
            designs.push((
                format!("random-{seed:x}"),
                random_netlist(seed, ops),
                options(2),
            ));
        }
        let mut rng = SmallRng::seed_from_u64(0x32);
        for _ in 0..12 {
            let seed = rng.next_u64();
            designs.push((
                format!("random-{seed:x}"),
                random_netlist(seed, 50),
                options(4),
            ));
        }
        designs
            .into_iter()
            .map(|(name, netlist, options)| {
                let mut ctx = CompileCtx::new(&netlist, &options, 1);
                PassManager::standard()
                    .run(&mut ctx)
                    .unwrap_or_else(|e| panic!("{name}: {e}"));
                Compiled {
                    config: options.config.clone(),
                    partition: options.partition,
                    mono: ctx.mono.take().expect("pipeline ran"),
                    parted: ctx.parted.take().expect("pipeline ran"),
                    schedule: ctx.schedule.take().expect("pipeline ran"),
                    name,
                }
            })
            .collect()
    })
}

#[test]
fn balanced_merge_matches_its_oracle() {
    for c in suite() {
        let split = partition::split(&c.mono, 1);
        let cores = c.config.num_cores();
        let expected = merge_balanced_ref(split.units.clone(), cores, &split.instr_cost);
        let merged = partition::merge_balanced(
            split.units,
            cores,
            &split.instr_cost,
            c.mono.states.len(),
            &CompileControl::default(),
        )
        .unwrap();
        assert_eq!(merged, expected, "{}: merged units differ", c.name);
    }
}

#[test]
fn dependency_graphs_and_schedule_match_their_oracle() {
    for c in suite() {
        let lat = c.config.hazard_latency as u64;
        let mut graphs = Vec::new();
        for (pi, p) in c.parted.processes.iter().enumerate() {
            let (got, want) = (schedule::build_graph(p, lat), build_graph_ref(p, lat));
            let what = format!("{} process {pi}", c.name);
            // Successor lists may be ordered differently; the edge
            // multiset may not.
            let sorted = |g: &ProcGraph| -> Vec<Vec<(usize, u64)>> {
                g.succs
                    .iter()
                    .map(|s| {
                        let mut s = s.clone();
                        s.sort_unstable();
                        s
                    })
                    .collect()
            };
            assert_eq!(sorted(&got), sorted(&want), "{what}: edges");
            assert_eq!(got.indeg, want.indeg, "{what}: in-degrees");
            assert_eq!(got.priority, want.priority, "{what}: priorities");
            assert_eq!(got.active, want.active, "{what}: active set");
            assert_eq!(got.consts, want.consts, "{what}: hoisted constants");
            graphs.push(want);
        }
        // And the issue loop, fed the oracle's graphs, reproduces the
        // pipeline's schedule exactly.
        let rescheduled = schedule::issue(&c.parted, &c.config, graphs).unwrap();
        assert!(rescheduled == c.schedule, "{}: schedule differs", c.name);
    }
}

#[test]
fn register_allocation_matches_its_oracle() {
    for c in suite() {
        let persistent = regalloc::assign_persistent(&c.parted, &c.schedule);
        for (pi, p) in c.parted.processes.iter().enumerate() {
            let args = (
                &c.schedule.slots[pi],
                &persistent.pinned[pi],
                &persistent.state_reg[pi],
                persistent.temp_base[pi],
            );
            let got = regalloc::alloc_process(p, args.0, args.1, args.2, args.3, &c.config);
            let want = alloc_process_ref(p, args.0, args.1, args.2, args.3, &c.config);
            let want = want.map(|map| {
                assert!(map.keys().all(|v| v.index() < p.num_vregs as usize));
                (0..p.num_vregs)
                    .map(|v| map.get(&VReg(v)).copied())
                    .collect::<Vec<Option<Reg>>>()
            });
            assert_eq!(got, want, "{} process {pi}: register view", c.name);
        }
    }
}

/// A seeded straight-line logic process: `inputs` live-in words, three
/// constants, then `nodes` And/Or/Xor instructions whose operands come
/// mostly from the last six values. The cones are reconvergent over few
/// leaves, so a node's merged cut list outgrows its per-operand cap,
/// which no suite design does; every fifth result is also committed, so
/// not every cone is fanout-free.
fn random_logic_process(seed: u64, inputs: usize, nodes: usize) -> Process {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut p = Process::default();
    let mut values: Vec<VReg> = Vec::new();
    for s in 0..inputs {
        let v = p.fresh();
        p.state_reads.insert(StateId(s as u32), v);
        values.push(v);
    }
    for _ in 0..3 {
        let v = p.fresh();
        let op = LirOp::Const(rng.next_u64() as u16);
        p.instrs.push(LirInstr {
            dest: Some(v),
            op,
            args: vec![],
        });
        values.push(v);
    }
    let commit = |p: &mut Process, v: VReg| {
        let state = StateId(p.instrs.len() as u32);
        p.instrs.push(LirInstr {
            dest: None,
            op: LirOp::CommitLocal { state },
            args: vec![v],
        });
    };
    for k in 0..nodes {
        let mut args = Vec::new();
        for _ in 0..2 {
            let back = if rng.gen_range(0..4) == 0 {
                rng.gen_range(0..values.len())
            } else {
                rng.gen_range(0..values.len().min(6))
            };
            args.push(values[values.len() - 1 - back]);
        }
        let op = [AluOp::And, AluOp::Or, AluOp::Xor][rng.gen_range(0..3)];
        let d = p.fresh();
        p.instrs.push(LirInstr {
            dest: Some(d),
            op: LirOp::Alu(op),
            args,
        });
        values.push(d);
        if k % 5 == 4 || k + 1 == nodes {
            commit(&mut p, d);
        }
    }
    p
}

#[test]
fn custom_function_synthesis_matches_its_oracle() {
    let mut inputs: Vec<(String, LirProgram, usize)> = suite()
        .iter()
        .map(|c| {
            let cores = c.config.num_cores();
            let control = CompileControl::default();
            let parted = partition::partition(&c.mono, cores, c.partition, 1, &control).unwrap();
            (c.name.clone(), parted, c.config.num_custom_functions)
        })
        .collect();
    for name in ["noc", "bc"] {
        let w = manticore_workloads::by_name(name).expect("known workload");
        let tables = MachineConfig::with_grid(15, 15).num_custom_functions;
        inputs.push((format!("{name}-15x15"), cfu_input(&w.netlist, 15), tables));
    }
    let mut rng = SmallRng::seed_from_u64(0x33);
    for i in 0..48 {
        let seed = rng.next_u64();
        let process = random_logic_process(seed, 2 + i % 5, 20 + rng.gen_range(0..60));
        let program = LirProgram {
            processes: vec![process],
            ..Default::default()
        };
        // Half of them on a table budget tight enough to bind.
        let max_tables = if i % 2 == 0 { 32 } else { 3 };
        inputs.push((format!("logic-{seed:x}"), program, max_tables));
    }
    let mut fused = 0;
    for (name, parted, max_tables) in &inputs {
        for (pi, p) in parted.processes.iter().enumerate() {
            let what = format!("{name} process {pi}");
            let (mut got, mut want) = (p.clone(), p.clone());
            let stats = cfu::synthesize(&mut got, *max_tables);
            assert_eq!(
                stats,
                synthesize_ref(&mut want, *max_tables),
                "{what}: stats"
            );
            assert_eq!(got.instrs, want.instrs, "{what}: rewritten instructions");
            assert_eq!(got.state_reads, want.state_reads, "{what}: live-ins");
            assert_eq!(got.num_vregs, want.num_vregs, "{what}: vreg count");
            assert_eq!(got.is_privileged, want.is_privileged, "{what}: privilege");
            fused += stats.fused;
        }
    }
    assert!(fused > 0, "the suite exercises no fusion");
}
