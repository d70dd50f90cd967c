//! Extracting parallelism (§6.1): split the monolithic process into a
//! maximal set of per-sink cones, then merge them down to the core count.
//!
//! Splitting walks backwards from every sink (a state-word commit, the
//! stores of one memory, or the privileged instruction group) and takes the
//! full fan-in cone, duplicating shared computation — maximal parallelism
//! at the cost of recomputation. Two affinity rules constrain the split:
//! all accesses to one memory stay together, and all privileged
//! instructions stay together.
//!
//! Merging is a graph clustering problem with a *non-linear* cost: merging
//! two cones deduplicates their shared instructions (represented here as
//! bitsets over the monolithic instruction indices, so the merged cost is a
//! popcount of the union) and eliminates Sends between them. Two strategies
//! are implemented:
//!
//! - [`PartitionStrategy::Balanced`] — the paper's communication-aware
//!   heuristic: repeatedly merge the cheapest process into the communicating
//!   partner that minimizes the merged execution time, continuing past the
//!   core count while it keeps the straggler bounded;
//! - [`PartitionStrategy::Lpt`] — the communication-oblivious
//!   longest-processing-time-first baseline the paper evaluates against
//!   (Fig. 9 / Table 4).
//!
//! # Parallel structure and determinism
//!
//! [`partition`] decomposes the pass into an embarrassingly parallel cone
//! phase (each seed's fan-in closure is independent given the def table),
//! a **serial** merge (the greedy loop is a sequential decision process),
//! and an embarrassingly parallel materialization (each surviving unit
//! rebuilds its instruction list independently; Sends and the exception
//! remap are appended serially afterwards). Parallel stages fan out with
//! [`manticore_util::parallel_map`], which assigns results to
//! pre-determined slots — output is a pure function of the index, so the
//! pass is bit-identical at any thread count.
//!
//! The balanced merge keeps per-unit costs, per-state live-reader counts
//! and per-weight word masks up to date incrementally instead of
//! rescanning every unit each iteration. The test oracle in `oracle.rs`
//! computes the same merge from first principles, and a unit test holds
//! the two to identical results on every workload.

use std::collections::{BTreeSet, HashMap};

use manticore_util::parallel_map;

use crate::bitset::BitSet;
use crate::error::CompileError;
use crate::lir::{LirExceptionKind, LirInstr, LirOp, LirProgram, Process, StateId, VReg};
use crate::pass::CompileControl;

/// How many merge iterations run between [`CompileControl`] polls. The
/// greedy loop retires one unit per iteration, so even a huge design
/// observes a tripped deadline within a bounded amount of work.
const MERGE_POLL_PERIOD: usize = 64;

/// Which merge strategy to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartitionStrategy {
    /// Communication-aware balanced merging (the paper's algorithm, `B`).
    #[default]
    Balanced,
    /// Longest-processing-time-first, communication-oblivious (`L`).
    Lpt,
}

/// One mergeable unit: a cone of monolithic instructions plus its state
/// interface.
#[derive(Debug, Clone)]
pub(crate) struct Unit {
    pub(crate) instrs: BitSet,
    /// Deduplicated instruction cost (weighted popcount of `instrs`).
    pub(crate) base_cost: usize,
    /// States committed inside this unit.
    pub(crate) commits: BTreeSet<StateId>,
    /// States read (live-in) by this unit.
    pub(crate) reads: BTreeSet<StateId>,
}

/// Splits and merges the monolithic program onto `num_cores` cores,
/// fanning the cone and materialization phases over `threads` workers.
/// Output is bit-identical at any thread count. The serial merge loop
/// polls `control` every `MERGE_POLL_PERIOD` iterations, so a tripped
/// deadline or cancel token stops the pass with a structured error
/// instead of running the merge to completion.
///
/// # Errors
///
/// [`CompileError::DeadlineExceeded`] / [`CompileError::Cancelled`] when
/// the control fires mid-merge.
///
/// # Panics
///
/// Panics if `prog` is not monolithic (exactly one process).
pub fn partition(
    prog: &LirProgram,
    num_cores: usize,
    strategy: PartitionStrategy,
    threads: usize,
    control: &CompileControl,
) -> Result<LirProgram, CompileError> {
    let split = split(prog, threads);
    // Merge (inherently serial: a sequential greedy decision process).
    let merged_sets = match strategy {
        PartitionStrategy::Balanced => merge_balanced(
            split.units,
            num_cores,
            &split.instr_cost,
            prog.states.len(),
            control,
        )?,
        PartitionStrategy::Lpt => merge_lpt(split.units, num_cores),
    };
    Ok(materialize(
        prog,
        &merged_sets,
        &split.def_of,
        &split.vreg_state,
        threads,
    ))
}

/// The split phase's output: the mergeable units plus the lookup tables
/// the merge and materialization share.
pub(crate) struct Split {
    pub(crate) units: Vec<Unit>,
    /// Issue slots per monolithic instruction (`Const`s weigh 0).
    pub(crate) instr_cost: Vec<usize>,
    def_of: Vec<Option<usize>>,
    vreg_state: HashMap<VReg, StateId>,
}

/// Splits the monolithic program into per-sink cones and unites them by
/// memory and privilege affinity, building each cone on `threads`
/// workers.
///
/// # Panics
///
/// Panics if `prog` is not monolithic (exactly one process).
pub(crate) fn split(prog: &LirProgram, threads: usize) -> Split {
    assert_eq!(
        prog.processes.len(),
        1,
        "partition expects a monolithic program"
    );
    let mono = &prog.processes[0];
    let n = mono.instrs.len();

    // def index per vreg (live-ins have none).
    let mut def_of: Vec<Option<usize>> = vec![None; mono.num_vregs as usize];
    for (i, instr) in mono.instrs.iter().enumerate() {
        if let Some(d) = instr.dest {
            def_of[d.index()] = Some(i);
        }
    }
    let instr_cost: Vec<usize> = mono
        .instrs
        .iter()
        .map(|i| match i.op {
            LirOp::Const(_) => 0,
            ref op => op.issue_slots(),
        })
        .collect();
    let mut vreg_state: HashMap<VReg, StateId> = HashMap::new();
    for (&s, &v) in &mono.state_reads {
        vreg_state.insert(v, s);
    }

    // ------------------------------------------------------------------
    // Split: seed groups, grow cones (each cone independent — parallel).
    // ------------------------------------------------------------------
    let mut seeds: Vec<Vec<usize>> = Vec::new();
    let mut mem_seed: HashMap<u32, usize> = HashMap::new();
    let mut priv_seed: Option<usize> = None;
    for (i, instr) in mono.instrs.iter().enumerate() {
        match &instr.op {
            LirOp::CommitLocal { .. } => seeds.push(vec![i]),
            LirOp::LocalStore { mem, .. } | LirOp::GlobalStore { mem, .. } => {
                let g = *mem_seed.entry(mem.0).or_insert_with(|| {
                    seeds.push(Vec::new());
                    seeds.len() - 1
                });
                seeds[g].push(i);
            }
            LirOp::Expect { .. } => {
                let g = *priv_seed.get_or_insert_with(|| {
                    seeds.push(Vec::new());
                    seeds.len() - 1
                });
                seeds[g].push(i);
            }
            _ => {}
        }
    }

    let cones: Vec<BitSet> = parallel_map(seeds.len(), threads, |si| {
        let seed = &seeds[si];
        let mut cone = BitSet::new(n);
        let mut stack: Vec<usize> = seed.clone();
        for &s in seed {
            cone.insert(s);
        }
        while let Some(i) = stack.pop() {
            for a in &mono.instrs[i].args {
                if let Some(d) = def_of[a.index()] {
                    if !cone.contains(d) {
                        cone.insert(d);
                        stack.push(d);
                    }
                }
            }
        }
        cone
    });

    // Affinity: cones touching the same memory unite; cones with privileged
    // instructions unite with the privileged cone.
    let mut uf = UnionFind::new(cones.len());
    let mut mem_home: HashMap<u32, usize> = HashMap::new();
    for (u, cone) in cones.iter().enumerate() {
        for i in cone.iter() {
            match &mono.instrs[i].op {
                LirOp::LocalLoad { mem, .. }
                | LirOp::LocalStore { mem, .. }
                | LirOp::GlobalLoad { mem }
                | LirOp::GlobalStore { mem } => {
                    let home = *mem_home.entry(mem.0).or_insert(u);
                    uf.union(home, u);
                }
                _ => {}
            }
            if mono.instrs[i].op.is_privileged() {
                if let Some(pg) = priv_seed {
                    uf.union(pg, u);
                }
            }
        }
    }
    let mut class_unit: HashMap<usize, usize> = HashMap::new();
    let mut unit_sets: Vec<BitSet> = Vec::new();
    for (u, cone) in cones.iter().enumerate() {
        let root = uf.find(u);
        match class_unit.get(&root) {
            Some(&idx) => unit_sets[idx].union_with(cone),
            None => {
                class_unit.insert(root, unit_sets.len());
                unit_sets.push(cone.clone());
            }
        }
    }

    let units: Vec<Unit> = {
        let mut unit_sets = unit_sets;
        parallel_map(unit_sets.len(), threads, |ui| {
            let set = &unit_sets[ui];
            let base_cost = set.iter().map(|i| instr_cost[i]).sum();
            let mut commits = BTreeSet::new();
            let mut reads = BTreeSet::new();
            for i in set.iter() {
                if let LirOp::CommitLocal { state } = mono.instrs[i].op {
                    commits.insert(state);
                }
                for a in &mono.instrs[i].args {
                    if let Some(&s) = vreg_state.get(a) {
                        reads.insert(s);
                    }
                }
            }
            (base_cost, commits, reads)
        })
        .into_iter()
        .enumerate()
        .map(|(ui, (base_cost, commits, reads))| Unit {
            instrs: std::mem::replace(&mut unit_sets[ui], BitSet::new(0)),
            base_cost,
            commits,
            reads,
        })
        .collect()
    };

    Split {
        units,
        instr_cost,
        def_of,
        vreg_state,
    }
}

/// Send count of unit `u` given current ownership: one per (state committed
/// by `u`, other live unit reading it).
pub(crate) fn send_count(u: usize, units: &[Unit], alive: &[bool]) -> usize {
    let mut sends = 0;
    for s in &units[u].commits {
        for (v, other) in units.iter().enumerate() {
            if v != u && alive[v] && other.reads.contains(s) {
                sends += 1;
            }
        }
    }
    sends
}

/// The communication-aware balanced merge: repeatedly merge the cheapest
/// live unit into the communicating partner (any live unit when none
/// communicates) that minimizes the merged cost, past the core count
/// while that cost stays within the straggler's.
///
/// Costs are kept up to date incrementally rather than recomputed from
/// first principles each iteration, as the definition (the test oracle
/// `merge_balanced_ref` in `oracle.rs`) does. Why the decisions match
/// the definition's:
///
/// - **Unit cost.** The definition's `cost(i) = base_cost(i) + sends(i)`
///   where `sends(i) = Σ_{s ∈ commits_i} |{v alive, v ≠ i, s ∈ reads_v}|`.
///   Here `readers_cnt[s]` maintains the number of *live* units reading
///   `s`, so `sends(i) = Σ_s (readers_cnt[s] − [i reads s])`; `cost[]` is
///   kept consistent across merges by local updates (below) plus a full
///   recompute of the merged unit.
/// - **Cheapest unit.** The definition takes `min_by_key` over live units
///   in ascending index order, which returns the *first* minimum; the scan
///   here uses strict `<` over the same order.
/// - **Partner choice.** The definition minimizes `(merged_cost, v)`
///   tuples; `merged_cost(v)` = weighted union popcount + chained sends
///   `Σ_{s ∈ commits_u ∪ commits_v} (readers_cnt[s] − [u reads s] −
///   [v reads s])` — the same quantity, computed via per-weight word masks
///   (`popcount(w & mask1) + 2·popcount(w & mask2)`) instead of bit
///   iteration. Note `commits_u` and `commits_v` are disjoint (each state
///   has exactly one committer), so the chained iteration counts each
///   state once, exactly like the definition.
/// - **Stop rule.** `must_merge` and the straggler bound use the same
///   cached costs.
///
/// On merging `v` into `u`: for each state read by both, the union loses a
/// duplicate reader, so `readers_cnt[s] -= 1` and the state's live
/// committer (if distinct from `u`/`v`) loses one send; `v`'s committed
/// states transfer their committer to `u`; `cost[u]` is recomputed in
/// full. Everything else is unchanged.
pub(crate) fn merge_balanced(
    mut units: Vec<Unit>,
    num_cores: usize,
    instr_cost: &[usize],
    num_states: usize,
    control: &CompileControl,
) -> Result<Vec<BitSet>, CompileError> {
    let nunits = units.len();
    let mut alive = vec![true; nunits];
    if nunits == 0 {
        return Ok(Vec::new());
    }

    // Per-weight word masks over monolithic instruction indices: the
    // weighted popcount of any instruction set is then two masked
    // popcounts per word (issue slots are 1 or 2; Consts weigh 0).
    let nwords = units[0].instrs.words().len();
    let mut mask1 = vec![0u64; nwords];
    let mut mask2 = vec![0u64; nwords];
    for (i, &c) in instr_cost.iter().enumerate() {
        match c {
            0 => {}
            1 => mask1[i / 64] |= 1 << (i % 64),
            2 => mask2[i / 64] |= 1 << (i % 64),
            _ => unreachable!("issue slots are 1 or 2"),
        }
    }
    let weighted = |words: &[u64]| -> usize {
        words
            .iter()
            .zip(mask1.iter().zip(&mask2))
            .map(|(&w, (&m1, &m2))| ((w & m1).count_ones() + 2 * (w & m2).count_ones()) as usize)
            .sum()
    };
    let weighted_union = |a: &BitSet, b: &BitSet| -> usize {
        a.words()
            .iter()
            .zip(b.words())
            .zip(mask1.iter().zip(&mask2))
            .map(|((&wa, &wb), (&m1, &m2))| {
                let w = wa | wb;
                ((w & m1).count_ones() + 2 * (w & m2).count_ones()) as usize
            })
            .sum()
    };

    // Live-reader counts and (unique) committers per state.
    let mut readers_cnt = vec![0usize; num_states];
    let mut committer = vec![usize::MAX; num_states];
    for (ui, unit) in units.iter().enumerate() {
        for s in &unit.reads {
            readers_cnt[s.index()] += 1;
        }
        for s in &unit.commits {
            debug_assert_eq!(committer[s.index()], usize::MAX, "unique committer");
            committer[s.index()] = ui;
        }
    }
    let full_cost = |u: usize, units: &[Unit], readers_cnt: &[usize]| -> usize {
        let sends: usize = units[u]
            .commits
            .iter()
            .map(|s| readers_cnt[s.index()] - units[u].reads.contains(s) as usize)
            .sum();
        units[u].base_cost + sends
    };
    let mut cost: Vec<usize> = (0..nunits)
        .map(|u| full_cost(u, &units, &readers_cnt))
        .collect();

    let mut live_count = nunits;
    let mut iterations = 0usize;
    while live_count > 1 {
        if iterations.is_multiple_of(MERGE_POLL_PERIOD) {
            control.check("partition")?;
        }
        iterations += 1;
        let must_merge = live_count > num_cores;
        // Cheapest live unit: first minimal in ascending index order.
        let mut u = usize::MAX;
        for i in 0..nunits {
            if alive[i] && (u == usize::MAX || cost[i] < cost[u]) {
                u = i;
            }
        }
        // Communicating partners.
        let mut candidates: Vec<usize> = (0..nunits)
            .filter(|&v| {
                alive[v]
                    && v != u
                    && (units[u].commits.iter().any(|s| units[v].reads.contains(s))
                        || units[v].commits.iter().any(|s| units[u].reads.contains(s)))
            })
            .collect();
        if candidates.is_empty() {
            candidates = (0..nunits).filter(|&v| alive[v] && v != u).collect();
        }
        let merged_cost = |v: usize| -> usize {
            let base = weighted_union(&units[u].instrs, &units[v].instrs);
            let sends: usize = units[u]
                .commits
                .iter()
                .chain(units[v].commits.iter())
                .map(|s| {
                    readers_cnt[s.index()]
                        - units[u].reads.contains(s) as usize
                        - units[v].reads.contains(s) as usize
                })
                .sum();
            base + sends
        };
        let best = candidates.iter().map(|&v| (merged_cost(v), v)).min();
        let Some((best_cost, v)) = best else { break };
        if !must_merge {
            let straggler = (0..nunits)
                .filter(|&i| alive[i])
                .map(|i| cost[i])
                .max()
                .unwrap();
            if best_cost > straggler {
                break;
            }
        }

        // Merge v into u, updating the caches.
        let vv = std::mem::replace(
            &mut units[v],
            Unit {
                instrs: BitSet::new(0),
                base_cost: 0,
                commits: BTreeSet::new(),
                reads: BTreeSet::new(),
            },
        );
        // Duplicate readers collapse: states read by both lose one live
        // reader, and their committers (other than u/v) lose one send.
        for s in vv.reads.intersection(&units[u].reads) {
            readers_cnt[s.index()] -= 1;
            let c = committer[s.index()];
            if c != usize::MAX && c != u && c != v && alive[c] {
                cost[c] -= 1;
            }
        }
        for s in &vv.commits {
            committer[s.index()] = u;
        }
        units[u].instrs.union_with(&vv.instrs);
        let merged_base = weighted(units[u].instrs.words());
        units[u].base_cost = merged_base;
        units[u].commits.extend(vv.commits.iter().copied());
        units[u].reads.extend(vv.reads.iter().copied());
        alive[v] = false;
        live_count -= 1;
        cost[u] = full_cost(u, &units, &readers_cnt);
    }
    Ok(units
        .into_iter()
        .zip(alive)
        .filter_map(|(un, a)| a.then_some(un.instrs))
        .collect())
}

fn merge_lpt(units: Vec<Unit>, num_cores: usize) -> Vec<BitSet> {
    let alive = vec![true; units.len()];
    let costs: Vec<usize> = (0..units.len())
        .map(|i| units[i].base_cost + send_count(i, &units, &alive))
        .collect();
    let mut order: Vec<usize> = (0..units.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(costs[i]));
    let nbins = num_cores.min(units.len());
    if nbins == 0 {
        return Vec::new();
    }
    let mut bins: Vec<Option<BitSet>> = vec![None; nbins];
    let mut bin_load = vec![0usize; nbins];
    for i in order {
        let b = (0..nbins).min_by_key(|&b| bin_load[b]).unwrap();
        match &mut bins[b] {
            Some(set) => set.union_with(&units[i].instrs),
            slot @ None => *slot = Some(units[i].instrs.clone()),
        }
        bin_load[b] += costs[i]; // linear cost assumption: the point of L
    }
    bins.into_iter().flatten().collect()
}

/// Rebuilds per-process instruction lists from unit bitsets, renumbers
/// vregs, threads live-ins through, generates `Send`s, and remaps the
/// exception table. The per-unit rebuild is independent across units and
/// fans out over the worker pool; Sends and the exception remap run
/// serially afterwards (they read cross-unit ownership).
fn materialize(
    prog: &LirProgram,
    units: &[BitSet],
    def_of: &[Option<usize>],
    vreg_state: &HashMap<VReg, StateId>,
    threads: usize,
) -> LirProgram {
    let mono = &prog.processes[0];
    let rebuilt: Vec<(Process, HashMap<VReg, VReg>)> = parallel_map(units.len(), threads, |ui| {
        let unit = &units[ui];
        let mut p = Process::default();
        let mut vmap: HashMap<VReg, VReg> = HashMap::new();
        for i in unit.iter() {
            let old = &mono.instrs[i];
            let mut args = Vec::with_capacity(old.args.len());
            for &a in &old.args {
                let mapped = if let Some(&m) = vmap.get(&a) {
                    m
                } else if let Some(&s) = vreg_state.get(&a) {
                    let v = p.fresh();
                    p.state_reads.insert(s, v);
                    vmap.insert(a, v);
                    v
                } else {
                    debug_assert!(def_of[a.index()].is_some());
                    unreachable!("cone closure must include defining instruction")
                };
                args.push(mapped);
            }
            let dest = old.dest.map(|d| {
                let v = p.fresh();
                vmap.insert(d, v);
                v
            });
            if old.op.is_privileged() {
                p.is_privileged = true;
            }
            p.instrs.push(LirInstr {
                dest,
                op: old.op.clone(),
                args,
            });
        }
        (p, vmap)
    });
    let (mut processes, vmaps): (Vec<Process>, Vec<HashMap<VReg, VReg>>) =
        rebuilt.into_iter().unzip();

    // Sends: the owner of each state sends to every other reader process.
    let mut owners = vec![usize::MAX; prog.states.len()];
    for (pi, p) in processes.iter().enumerate() {
        for instr in &p.instrs {
            if let LirOp::CommitLocal { state } = instr.op {
                owners[state.index()] = pi;
            }
        }
    }
    let mut readers: Vec<Vec<usize>> = vec![Vec::new(); prog.states.len()];
    for (pi, p) in processes.iter().enumerate() {
        for &s in p.state_reads.keys() {
            readers[s.index()].push(pi);
        }
    }
    for (si, state_readers) in readers.iter().enumerate() {
        let owner = owners[si];
        if owner == usize::MAX {
            continue;
        }
        let src = processes[owner]
            .instrs
            .iter()
            .find_map(|i| match i.op {
                LirOp::CommitLocal { state } if state.index() == si => Some(i.args[0]),
                _ => None,
            })
            .expect("owner commits the state");
        for &rp in state_readers {
            if rp != owner {
                processes[owner].instrs.push(LirInstr {
                    dest: None,
                    op: LirOp::Send {
                        state: StateId(si as u32),
                        to_process: rp,
                    },
                    args: vec![src],
                });
            }
        }
    }

    // Remap exception argument vregs into the privileged process.
    let priv_idx = processes.iter().position(|p| p.is_privileged);
    let exceptions = prog
        .exceptions
        .iter()
        .map(|e| match e {
            LirExceptionKind::Display { format, args } => {
                let pi = priv_idx.expect("displays imply a privileged process");
                let vmap = &vmaps[pi];
                LirExceptionKind::Display {
                    format: format.clone(),
                    args: args
                        .iter()
                        .map(|(regs, w)| (regs.iter().map(|r| vmap[r]).collect(), *w))
                        .collect(),
                }
            }
            other => other.clone(),
        })
        .collect();

    LirProgram {
        processes,
        states: prog.states.clone(),
        mems: prog.mems.clone(),
        exceptions,
    }
}

/// Plain union-find with path halving.
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }
    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }
    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}
