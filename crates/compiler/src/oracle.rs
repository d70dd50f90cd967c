//! Test oracles for the three heavy passes, and the tests that hold the
//! production passes to them.
//!
//! Each oracle is the straightforward version of a pass whose production
//! algorithm is faster but must make the same decisions: the balanced
//! merge recomputing every cost from first principles
//! ([`crate::partition`]), the dependency-graph builder scanning the
//! whole process per commit ([`crate::schedule`]), and the hash-map
//! register allocator ([`crate::regalloc`]). The compile-determinism
//! suites only compare the production pipeline with itself across
//! thread counts; these tests compare it with the oracles, per pass, on
//! the nine workloads and `soc_sized(4, 3, 2000)` at 6×6 plus the seeded
//! random netlists of [`crate::tests`].

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::OnceLock;

use manticore_isa::{MachineConfig, Reg};
use manticore_util::SmallRng;

use crate::bitset::BitSet;
use crate::error::CompileError;
use crate::lir::{LirOp, LirProgram, Process, StateId, VReg};
use crate::partition::{self, send_count, Unit};
use crate::pass::{CompileControl, CompileCtx, PassManager};
use crate::regalloc;
use crate::schedule::{self, finish_graph, ProcGraph, Schedule};
use crate::tests::{options, random_netlist};
use crate::CompileOptions;

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

// ---------------------------------------------------------------------
// The comparisons.
// ---------------------------------------------------------------------

/// One design compiled through the standard pipeline, keeping each heavy
/// pass's input and the schedule it produced.
struct Compiled {
    name: String,
    config: MachineConfig,
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
