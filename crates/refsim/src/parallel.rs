//! Multithreaded macro-task executor — the analog of `verilator --threads`
//! (§7.3).
//!
//! Construction mirrors Verilator's pipeline: the op DAG is partitioned
//! into macro-tasks (initially per-sink, without duplicating work), tasks
//! are coarsened by merging along communication edges (Sarkar-style
//! smallest-cost merging), and the final tasks are statically assigned to a
//! thread pool (LPT). At runtime a macro-task starts once its predecessor
//! tasks complete — enforced with atomic counters and spin waits — and all
//! threads rendezvous at two barriers per simulated cycle (end of compute,
//! end of commit), exactly the synchronization structure whose cost §7.1
//! models and Fig. 6 measures.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::time::Instant;

use manticore_util::SpinBarrier;

use crate::serial::{commit, run_checks, RunStats, SimEvents, TapeState};
use crate::tape::{eval_op, Op, Tape};

/// One macro-task: a contiguous-in-topo-order list of op indices.
#[derive(Debug, Clone, Default)]
struct Task {
    ops: Vec<u32>,
    /// Tasks that must complete first.
    deps: Vec<u32>,
    /// Tasks waiting on this one.
    dependents: Vec<u32>,
}

/// The macro-task execution plan for a tape: the coarsened task graph and
/// its static thread assignment. Building the plan (partitioning,
/// Sarkar-style coarsening, SCC condensation, LPT scheduling) is the
/// expensive part of constructing a parallel simulator; it depends only on
/// the tape, so it can be built once and reused across any number of runs
/// — which is what the facade's resumable `Simulator` backend does.
#[derive(Debug)]
pub struct MacroTaskPlan {
    tasks: Vec<Task>,
    /// Task ids each thread executes, in topological order.
    assignment: Vec<Vec<u32>>,
    threads: usize,
}

/// A parallel simulator: a tape plus its macro-task plan.
#[derive(Debug)]
pub struct ParallelSim<'t> {
    tape: &'t Tape,
    plan: MacroTaskPlan,
}

impl<'t> ParallelSim<'t> {
    /// Partitions the tape into macro-tasks of at least `grain` ops and
    /// assigns them to `threads` threads.
    pub fn new(tape: &'t Tape, threads: usize, grain: usize) -> Self {
        ParallelSim {
            tape,
            plan: MacroTaskPlan::build(tape, threads, grain),
        }
    }

    /// Number of macro-tasks.
    pub fn num_tasks(&self) -> usize {
        self.plan.num_tasks()
    }

    /// Runs up to `max_cycles` from the initial state; returns stats,
    /// final state, and events.
    pub fn run(&self, max_cycles: u64) -> ParallelRun {
        let mut state = TapeState::new(self.tape);
        self.run_with(&mut state, max_cycles)
    }

    /// Runs up to `max_cycles`, continuing from (and updating) `state`.
    pub fn run_with(&self, state: &mut TapeState, max_cycles: u64) -> ParallelRun {
        self.plan.run_with(self.tape, state, max_cycles)
    }
}

/// Outcome of a parallel run.
#[derive(Debug, Clone)]
pub struct ParallelRun {
    /// Timing statistics.
    pub stats: RunStats,
    /// Final committed register values.
    pub final_regs: Vec<u64>,
    /// All `$display` output in order.
    pub displays: Vec<String>,
    /// First failed assertion.
    pub failed_assert: Option<String>,
}

impl MacroTaskPlan {
    /// Partitions the tape into macro-tasks of at least `grain` ops and
    /// assigns them to `threads` threads.
    pub fn build(tape: &Tape, threads: usize, grain: usize) -> Self {
        let threads = threads.max(1);
        let n = tape.ops.len();
        // Producer op of each value slot.
        let mut producer: Vec<Option<u32>> = vec![None; tape.num_values];
        for (i, op) in tape.ops.iter().enumerate() {
            producer[dst_of(op) as usize] = Some(i as u32);
        }
        let op_deps = |i: usize| -> Vec<u32> {
            srcs_of(&tape.ops[i])
                .into_iter()
                .filter_map(|s| producer[s as usize])
                .collect()
        };

        // 1. Initial partition: backward growth from sinks, no duplication.
        let mut task_of_op: Vec<u32> = vec![u32::MAX; n];
        let mut sink_slots: Vec<u32> = Vec::new();
        for rc in &tape.reg_commits {
            sink_slots.push(rc.src);
        }
        for mc in &tape.mem_commits {
            sink_slots.extend([mc.addr, mc.data, mc.en]);
        }
        for ch in &tape.checks {
            match ch {
                crate::tape::Check::Display { cond, args, .. } => {
                    sink_slots.push(*cond);
                    sink_slots.extend(args.iter().map(|(s, _)| *s));
                }
                crate::tape::Check::Expect { cond, .. } | crate::tape::Check::Finish { cond } => {
                    sink_slots.push(*cond)
                }
            }
        }
        let mut groups: Vec<Vec<u32>> = Vec::new();
        for slot in sink_slots {
            let Some(root) = producer[slot as usize] else {
                continue;
            };
            if task_of_op[root as usize] != u32::MAX {
                continue;
            }
            let tid = groups.len() as u32;
            let mut ops = Vec::new();
            let mut stack = vec![root];
            task_of_op[root as usize] = tid;
            while let Some(i) = stack.pop() {
                ops.push(i);
                for d in op_deps(i as usize) {
                    if task_of_op[d as usize] == u32::MAX {
                        task_of_op[d as usize] = tid;
                        stack.push(d);
                    }
                }
            }
            ops.sort_unstable();
            groups.push(ops);
        }
        // Orphan ops (unused nets) go into a final task.
        let mut orphans: Vec<u32> = (0..n as u32)
            .filter(|&i| task_of_op[i as usize] == u32::MAX)
            .collect();
        if !orphans.is_empty() {
            let tid = groups.len() as u32;
            for &o in &orphans {
                task_of_op[o as usize] = tid;
            }
            orphans.sort_unstable();
            groups.push(orphans);
        }

        // 2. Coarsen: merge small tasks into the neighbour they talk to
        //    most (Sarkar's smallest-cost-increase merging, simplified).
        let edge_weight = |a: &Vec<u32>, b_id: u32, task_of_op: &Vec<u32>| -> usize {
            a.iter()
                .flat_map(|&i| op_deps(i as usize))
                .filter(|&d| task_of_op[d as usize] == b_id)
                .count()
        };
        loop {
            let (smallest, _) = match groups
                .iter()
                .enumerate()
                .filter(|(_, g)| !g.is_empty())
                .min_by_key(|(_, g)| g.len())
            {
                Some((i, g)) if g.len() < grain && live_count(&groups) > 1 => (i, g.len()),
                _ => break,
            };
            // Best neighbour: strongest communication edge, else any live.
            let mut best: Option<(usize, usize)> = None; // (weight, task)
            for (j, g) in groups.iter().enumerate() {
                if j == smallest || g.is_empty() {
                    continue;
                }
                let w = edge_weight(&groups[smallest], j as u32, &task_of_op)
                    + edge_weight(g, smallest as u32, &task_of_op);
                if best.is_none_or(|(bw, _)| w > bw) {
                    best = Some((w, j));
                }
            }
            let Some((_, j)) = best else { break };
            let moved = std::mem::take(&mut groups[smallest]);
            for &o in &moved {
                task_of_op[o as usize] = j as u32;
            }
            groups[j].extend(moved);
            groups[j].sort_unstable();
        }
        groups.retain(|g| !g.is_empty());
        // Renumber.
        for (tid, g) in groups.iter().enumerate() {
            for &o in g {
                task_of_op[o as usize] = tid as u32;
            }
        }

        // 3. Coarsening by union can create cyclic task dependencies;
        //    collapse strongly-connected components so the task graph is a
        //    DAG (the condensation), then build dependency edges.
        let groups = condense_sccs(groups, &mut task_of_op, &op_deps);
        let mut tasks: Vec<Task> = groups
            .iter()
            .map(|g| Task {
                ops: g.clone(),
                ..Default::default()
            })
            .collect();
        for (tid, g) in groups.iter().enumerate() {
            let mut deps: Vec<u32> = g
                .iter()
                .flat_map(|&i| op_deps(i as usize))
                .map(|d| task_of_op[d as usize])
                .filter(|&d| d != tid as u32)
                .collect();
            deps.sort_unstable();
            deps.dedup();
            for &d in &deps {
                tasks[d as usize].dependents.push(tid as u32);
            }
            tasks[tid].deps = deps;
        }

        // 4. Static LPT assignment to threads. Each thread executes its
        //    tasks in *global topological rank* order — a thread spinning
        //    on a task only ever waits for tasks earlier in the global
        //    order, which makes the spin discipline deadlock-free.
        let topo_rank = {
            let mut indeg: Vec<u32> = tasks.iter().map(|t| t.deps.len() as u32).collect();
            let mut stack: Vec<u32> = (0..tasks.len() as u32)
                .filter(|&t| indeg[t as usize] == 0)
                .collect();
            let mut rank = vec![0u32; tasks.len()];
            let mut next_rank = 0u32;
            while let Some(t) = stack.pop() {
                rank[t as usize] = next_rank;
                next_rank += 1;
                for &d in &tasks[t as usize].dependents {
                    indeg[d as usize] -= 1;
                    if indeg[d as usize] == 0 {
                        stack.push(d);
                    }
                }
            }
            assert_eq!(
                next_rank as usize,
                tasks.len(),
                "task graph must be acyclic"
            );
            rank
        };
        let mut order: Vec<u32> = (0..tasks.len() as u32).collect();
        order.sort_by_key(|&t| std::cmp::Reverse(tasks[t as usize].ops.len()));
        let mut assignment: Vec<Vec<u32>> = vec![Vec::new(); threads];
        let mut load = vec![0usize; threads];
        for t in order {
            let b = (0..threads).min_by_key(|&b| load[b]).unwrap();
            assignment[b].push(t);
            load[b] += tasks[t as usize].ops.len();
        }
        for a in &mut assignment {
            a.sort_by_key(|&t| topo_rank[t as usize]);
        }

        MacroTaskPlan {
            tasks,
            assignment,
            threads,
        }
    }

    /// Number of macro-tasks.
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Worker-thread count the plan was built for.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs up to `max_cycles` of `tape`, continuing from (and updating)
    /// `state`. `tape` must be the tape the plan was built from.
    pub fn run_with(&self, tape: &Tape, state: &mut TapeState, max_cycles: u64) -> ParallelRun {
        let TapeState {
            values,
            regs,
            mems,
            cycle,
        } = state;
        let mut displays = Vec::new();
        let mut failed_assert = None;
        let mut stats = RunStats::default();

        let pending: Vec<AtomicU32> = self
            .tasks
            .iter()
            .map(|t| AtomicU32::new(t.deps.len() as u32))
            .collect();
        let stop = AtomicBool::new(false);
        let b_start = SpinBarrier::new(self.threads);
        let b_end = SpinBarrier::new(self.threads);
        let shared = SharedState {
            values: values.as_mut_ptr(),
            regs: regs.as_ptr(),
            mems: &*mems as *const Vec<Vec<u64>>,
        };

        let start = Instant::now();
        std::thread::scope(|scope| {
            // Workers 1..threads.
            for w in 1..self.threads {
                let my_tasks = &self.assignment[w];
                let tasks = &self.tasks;
                let pending = &pending;
                let stop = &stop;
                let b_start = &b_start;
                let b_end = &b_end;
                scope.spawn(move || loop {
                    b_start.wait().expect("tape barrier is never poisoned");
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    run_tasks(tape, tasks, my_tasks, pending, shared);
                    b_end.wait().expect("tape barrier is never poisoned");
                });
            }
            // Main thread drives cycles and the serial phase.
            let mut finished = false;
            for _ in 0..max_cycles {
                b_start.wait().expect("tape barrier is never poisoned");
                run_tasks(tape, &self.tasks, &self.assignment[0], &pending, shared);
                b_end.wait().expect("tape barrier is never poisoned");
                // Serial phase: checks, commit, counter reset (the second
                // rendezvous of the cycle).
                let ev: SimEvents = run_checks(&tape.checks, values);
                displays.extend(ev.displays);
                if failed_assert.is_none() {
                    failed_assert = ev.failed_assert;
                }
                commit(tape, values, regs, mems);
                for (t, p) in self.tasks.iter().zip(&pending) {
                    p.store(t.deps.len() as u32, Ordering::Release);
                }
                stats.cycles += 1;
                if ev.finished || failed_assert.is_some() {
                    finished = ev.finished;
                    break;
                }
            }
            stats.finished = finished;
            stop.store(true, Ordering::Release);
            b_start.wait().expect("tape barrier is never poisoned"); // release workers into exit
        });
        stats.seconds = start.elapsed().as_secs_f64();
        *cycle += stats.cycles;
        ParallelRun {
            stats,
            final_regs: regs.clone(),
            displays,
            failed_assert,
        }
    }
}

/// Raw shared pointers into the cycle state. Safety argument: each op
/// writes only its own `dst` slot, every slot has exactly one producer, and
/// a task reads foreign slots only after the producing task's completion
/// (enforced by the `pending` counters); registers and memories are only
/// read during the compute phase and only written in the serial phase
/// between barriers.
#[derive(Clone, Copy)]
struct SharedState {
    values: *mut u64,
    regs: *const u64,
    mems: *const Vec<Vec<u64>>,
}

unsafe impl Send for SharedState {}
unsafe impl Sync for SharedState {}

fn run_tasks(
    tape: &Tape,
    tasks: &[Task],
    mine: &[u32],
    pending: &[AtomicU32],
    shared: SharedState,
) {
    for &tid in mine {
        let task = &tasks[tid as usize];
        // Spin until all predecessor tasks completed (Verilator uses the
        // same fetch-and-add spin discipline); the shared backoff policy
        // yields once the producer evidently isn't running.
        manticore_util::spin_until(|| pending[tid as usize].load(Ordering::Acquire) == 0);
        // SAFETY: see `SharedState`.
        unsafe {
            let values = std::slice::from_raw_parts_mut(shared.values, tape.num_values);
            let regs = std::slice::from_raw_parts(shared.regs, tape.reg_init.len());
            let mems = &*shared.mems;
            for &oi in &task.ops {
                eval_op(&tape.ops[oi as usize], values, regs, mems);
            }
        }
        for &d in &task.dependents {
            pending[d as usize].fetch_sub(1, Ordering::AcqRel);
        }
    }
}

fn dst_of(op: &Op) -> u32 {
    match *op {
        Op::Const { dst, .. }
        | Op::RegRead { dst, .. }
        | Op::MemRead { dst, .. }
        | Op::Bin { dst, .. }
        | Op::Not { dst, .. }
        | Op::Slice { dst, .. }
        | Op::Concat { dst, .. }
        | Op::Mux { dst, .. }
        | Op::Sext { dst, .. }
        | Op::Red { dst, .. } => dst,
    }
}

fn srcs_of(op: &Op) -> Vec<u32> {
    match *op {
        Op::Const { .. } | Op::RegRead { .. } => vec![],
        Op::MemRead { a, .. } => vec![a],
        Op::Bin { a, b, .. } | Op::Concat { a, b, .. } => vec![a, b],
        Op::Not { a, .. } | Op::Slice { a, .. } | Op::Sext { a, .. } | Op::Red { a, .. } => {
            vec![a]
        }
        Op::Mux { a, b, c, .. } => vec![a, b, c],
    }
}

fn live_count(groups: &[Vec<u32>]) -> usize {
    groups.iter().filter(|g| !g.is_empty()).count()
}

/// Collapses strongly-connected components of the task dependency graph
/// into single tasks (Kosaraju), updating `task_of_op`.
fn condense_sccs(
    groups: Vec<Vec<u32>>,
    task_of_op: &mut [u32],
    op_deps: &dyn Fn(usize) -> Vec<u32>,
) -> Vec<Vec<u32>> {
    let n = groups.len();
    // Task-level edges dep -> user.
    let mut fwd: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut rev: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (tid, g) in groups.iter().enumerate() {
        let mut deps: Vec<u32> = g
            .iter()
            .flat_map(|&i| op_deps(i as usize))
            .map(|d| task_of_op[d as usize])
            .filter(|&d| d != tid as u32)
            .collect();
        deps.sort_unstable();
        deps.dedup();
        for d in deps {
            fwd[d as usize].push(tid as u32);
            rev[tid].push(d);
        }
    }
    // Kosaraju pass 1: finish order on the forward graph (iterative DFS).
    let mut visited = vec![false; n];
    let mut finish: Vec<u32> = Vec::with_capacity(n);
    for start in 0..n {
        if visited[start] {
            continue;
        }
        let mut stack: Vec<(u32, usize)> = vec![(start as u32, 0)];
        visited[start] = true;
        while let Some(&mut (v, ref mut ei)) = stack.last_mut() {
            if *ei < fwd[v as usize].len() {
                let next = fwd[v as usize][*ei];
                *ei += 1;
                if !visited[next as usize] {
                    visited[next as usize] = true;
                    stack.push((next, 0));
                }
            } else {
                finish.push(v);
                stack.pop();
            }
        }
    }
    // Pass 2: components on the reverse graph in reverse finish order.
    let mut comp = vec![u32::MAX; n];
    let mut ncomp = 0u32;
    for &start in finish.iter().rev() {
        if comp[start as usize] != u32::MAX {
            continue;
        }
        let mut stack = vec![start];
        comp[start as usize] = ncomp;
        while let Some(v) = stack.pop() {
            for &u in &rev[v as usize] {
                if comp[u as usize] == u32::MAX {
                    comp[u as usize] = ncomp;
                    stack.push(u);
                }
            }
        }
        ncomp += 1;
    }
    // Merge groups by component.
    let mut merged: Vec<Vec<u32>> = vec![Vec::new(); ncomp as usize];
    for (tid, g) in groups.into_iter().enumerate() {
        merged[comp[tid] as usize].extend(g);
    }
    merged.retain(|g| !g.is_empty());
    for (tid, g) in merged.iter_mut().enumerate() {
        g.sort_unstable();
        for &o in g.iter() {
            task_of_op[o as usize] = tid as u32;
        }
    }
    merged
}
