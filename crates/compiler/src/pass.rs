//! The pass manager: the Fig. 4 pipeline as an explicit list of
//! instrumented passes over a shared [`CompileCtx`].
//!
//! Each pass is a [`Pass`] implementation that advances the context by one
//! pipeline stage (netlist → monolithic LIR → partitioned LIR → schedule →
//! binary). The manager wraps every pass with wall-time and IR-size
//! instrumentation, collected into [`CompileReport::passes`] — the data
//! behind Fig. 13 and the compile-scaling bench.
//!
//! # Thread count and determinism
//!
//! There is one pipeline. `CompileCtx::threads` only sets how many
//! workers the parallel stages of the heavy passes fan out over
//! ([`manticore_util::parallel_map`]); at 1 they run inline on the
//! caller. Every pass runs the same algorithm at every thread count, so
//! the emitted binary is **bit-identical** at any thread count; the
//! compile-determinism suite compares `Binary::to_bytes` across 1/2/4
//! threads on every workload. The structural reasons each parallel stage
//! stays deterministic are documented in the respective modules
//! ([`partition`], [`schedule`], [`regalloc`]) and in ARCHITECTURE.md.

use std::time::Instant;

use manticore_netlist::Netlist;
use manticore_util::CancelToken;

use crate::error::CompileError;
use crate::report::{CompileReport, PassStat, SplitStats};
use crate::{cfu, lir, lir_opt, lower, opt, partition, regalloc, schedule, CompileOptions};

/// Host-side control over one compilation: a cooperative cancel token
/// and/or a wall-clock deadline, polled between passes and inside the
/// partition merge loop. The default is unconstrained (every check is a
/// no-op), so callers that never set one pay nothing.
///
/// This mirrors the machine's run-control machinery: tripping either
/// signal stops the compile at the next poll point with a structured
/// [`CompileError::Cancelled`] / [`CompileError::DeadlineExceeded`]
/// naming the pass it interrupted, instead of wedging the compiling
/// thread on a huge or hostile design.
#[derive(Debug, Clone, Default)]
pub struct CompileControl {
    /// Cooperative cancellation; tripping it stops the compile at the
    /// next poll point.
    pub cancel: Option<CancelToken>,
    /// Wall-clock deadline; the compile stops at the first poll point at
    /// or past it.
    pub deadline: Option<Instant>,
}

impl CompileControl {
    /// A control with only a deadline.
    pub fn with_deadline(deadline: Instant) -> CompileControl {
        CompileControl {
            cancel: None,
            deadline: Some(deadline),
        }
    }

    /// True when either signal is set (the unconstrained default makes
    /// every poll a pair of `None` checks).
    pub fn is_constrained(&self) -> bool {
        self.cancel.is_some() || self.deadline.is_some()
    }

    /// One poll point: returns the structured interruption error if
    /// either signal has fired, attributing it to `pass`.
    ///
    /// # Errors
    ///
    /// [`CompileError::Cancelled`] or [`CompileError::DeadlineExceeded`].
    pub fn check(&self, pass: &'static str) -> Result<(), CompileError> {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Err(CompileError::Cancelled { pass });
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(CompileError::DeadlineExceeded { pass });
            }
        }
        Ok(())
    }
}

/// Shared state threaded through the pipeline: the inputs, the worker
/// count, each stage's IR once produced, and the accumulating report.
#[derive(Debug)]
pub struct CompileCtx<'a> {
    /// The input design.
    pub netlist: &'a Netlist,
    /// Compilation options (target config, strategy, feature toggles).
    pub options: &'a CompileOptions,
    /// Resolved worker count for the parallel stages (1 runs them inline);
    /// it never changes which algorithm a pass runs.
    pub threads: usize,
    /// After `netlist-opt`: the netlist actually compiled.
    pub optimized: Option<Netlist>,
    /// After `lower`/`lir-opt`: the monolithic lower-assembly program.
    pub mono: Option<lir::LirProgram>,
    /// After `partition`/`custom-functions`: the per-process program.
    pub parted: Option<lir::LirProgram>,
    /// After `schedule`: placement, slots, Vcycle framing.
    pub schedule: Option<schedule::Schedule>,
    /// After `regalloc-emit`: the binary plus metadata.
    pub emitted: Option<regalloc::EmitOutput>,
    /// Pass instrumentation and compile statistics.
    pub report: CompileReport,
    /// Cancellation/deadline control; unconstrained by default.
    pub control: CompileControl,
}

impl<'a> CompileCtx<'a> {
    /// A fresh context for one compilation.
    pub fn new(netlist: &'a Netlist, options: &'a CompileOptions, threads: usize) -> Self {
        let report = CompileReport {
            compile_threads: threads,
            ..Default::default()
        };
        CompileCtx {
            netlist,
            options,
            threads,
            optimized: None,
            mono: None,
            parted: None,
            schedule: None,
            emitted: None,
            report,
            control: CompileControl::default(),
        }
    }
}

/// One pipeline stage. Implementations advance the context and report
/// their post-run IR size; the manager does the timing.
pub trait Pass {
    /// Stable pass name (the report / bench column label).
    fn name(&self) -> &'static str;

    /// Worker threads this pass engages under `ctx` (1 for inherently
    /// serial passes, `ctx.threads` for the parallelized ones).
    fn threads_used(&self, _ctx: &CompileCtx) -> usize {
        1
    }

    /// Runs the pass, advancing the context by one stage.
    ///
    /// # Errors
    ///
    /// Stage-specific [`CompileError`]s (lowering rejections, resource
    /// overflows).
    fn run(&self, ctx: &mut CompileCtx) -> Result<(), CompileError>;

    /// Size of the IR the pass left behind — a deterministic output,
    /// compared exactly by the determinism suite and the bench gate.
    fn ir_size(&self, ctx: &CompileCtx) -> usize;
}

/// The pass list; [`PassManager::standard`] builds the Fig. 4 pipeline.
pub struct PassManager {
    passes: Vec<Box<dyn Pass>>,
}

impl PassManager {
    /// The standard seven-pass pipeline in Fig. 4 order.
    pub fn standard() -> Self {
        PassManager {
            passes: vec![
                Box::new(NetlistOptPass),
                Box::new(LowerPass),
                Box::new(LirOptPass),
                Box::new(PartitionPass),
                Box::new(CustomFunctionsPass),
                Box::new(SchedulePass),
                Box::new(RegallocEmitPass),
            ],
        }
    }

    /// The pass names in pipeline order (bench column headers).
    pub fn pass_names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// Runs every pass in order, recording a [`PassStat`] around each.
    ///
    /// # Errors
    ///
    /// The first failing pass's [`CompileError`].
    pub fn run(&self, ctx: &mut CompileCtx) -> Result<(), CompileError> {
        for pass in &self.passes {
            ctx.control.check(pass.name())?;
            let start = Instant::now();
            pass.run(ctx)?;
            ctx.report.passes.push(PassStat {
                name: pass.name(),
                duration: start.elapsed(),
                ir_size: pass.ir_size(ctx),
                threads: pass.threads_used(ctx),
            });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// The seven standard passes.
// ---------------------------------------------------------------------

/// Netlist-level constant folding, CSE, DCE (stage 1).
struct NetlistOptPass;

impl Pass for NetlistOptPass {
    fn name(&self) -> &'static str {
        "netlist-opt"
    }
    fn run(&self, ctx: &mut CompileCtx) -> Result<(), CompileError> {
        ctx.optimized = Some(if ctx.options.netlist_opt {
            opt::optimize(ctx.netlist)
        } else {
            ctx.netlist.clone()
        });
        Ok(())
    }
    fn ir_size(&self, ctx: &CompileCtx) -> usize {
        ctx.optimized.as_ref().map_or(0, |n| n.nets().len())
    }
}

/// Width legalization onto the 16-bit datapath (stage 2).
struct LowerPass;

impl Pass for LowerPass {
    fn name(&self) -> &'static str {
        "lower"
    }
    fn run(&self, ctx: &mut CompileCtx) -> Result<(), CompileError> {
        let optimized = ctx.optimized.as_ref().expect("netlist-opt ran");
        ctx.mono = Some(lower::lower(optimized, ctx.options.config.scratch_words)?);
        Ok(())
    }
    fn ir_size(&self, ctx: &CompileCtx) -> usize {
        ctx.mono.as_ref().map_or(0, |m| m.processes[0].instrs.len())
    }
}

/// Lower-assembly CSE/DCE on the monolithic program (stage 3).
struct LirOptPass;

impl Pass for LirOptPass {
    fn name(&self) -> &'static str {
        "lir-opt"
    }
    fn run(&self, ctx: &mut CompileCtx) -> Result<(), CompileError> {
        lir_opt::optimize(ctx.mono.as_mut().expect("lower ran"));
        Ok(())
    }
    fn ir_size(&self, ctx: &CompileCtx) -> usize {
        ctx.mono.as_ref().map_or(0, |m| m.processes[0].instrs.len())
    }
}

/// Cone split + communication-aware merge (stage 4). Parallel cone
/// extraction and materialization; the merge itself is serial.
struct PartitionPass;

impl Pass for PartitionPass {
    fn name(&self) -> &'static str {
        "partition"
    }
    fn threads_used(&self, ctx: &CompileCtx) -> usize {
        ctx.threads
    }
    fn run(&self, ctx: &mut CompileCtx) -> Result<(), CompileError> {
        let mono = ctx.mono.as_ref().expect("lir-opt ran");
        let parted = partition::partition(
            mono,
            ctx.options.config.num_cores(),
            ctx.options.partition,
            ctx.threads,
            &ctx.control,
        )?;
        ctx.report.split = SplitStats {
            vertices: count_split_units(mono),
            edges: count_split_edges(&parted),
        };
        ctx.parted = Some(parted);
        Ok(())
    }
    fn ir_size(&self, ctx: &CompileCtx) -> usize {
        parted_instrs(ctx)
    }
}

/// MFFC fusion into 4-input LUT ops, then per-process cleanup (stage 5).
/// Embarrassingly parallel: each process synthesizes independently.
struct CustomFunctionsPass;

impl Pass for CustomFunctionsPass {
    fn name(&self) -> &'static str {
        "custom-functions"
    }
    fn threads_used(&self, ctx: &CompileCtx) -> usize {
        ctx.threads
    }
    fn run(&self, ctx: &mut CompileCtx) -> Result<(), CompileError> {
        if ctx.options.custom_functions {
            let parted = ctx.parted.as_mut().expect("partition ran");
            let max_tables = ctx.options.config.num_custom_functions;
            manticore_util::parallel_map_mut(&mut parted.processes, ctx.threads, |_, p| {
                cfu::synthesize(p, max_tables);
            });
            lir_opt::optimize_threaded(parted, ctx.threads);
        }
        Ok(())
    }
    fn ir_size(&self, ctx: &CompileCtx) -> usize {
        parted_instrs(ctx)
    }
}

/// List scheduling against the hazard/NoC models (stage 6). Per-process
/// graph construction parallelizes; the global link-reserving issue loop
/// is serial (it is the NoC arbitration semantics).
struct SchedulePass;

impl Pass for SchedulePass {
    fn name(&self) -> &'static str {
        "schedule"
    }
    fn threads_used(&self, ctx: &CompileCtx) -> usize {
        ctx.threads
    }
    fn run(&self, ctx: &mut CompileCtx) -> Result<(), CompileError> {
        let parted = ctx.parted.as_ref().expect("partition ran");
        ctx.schedule = Some(schedule::schedule(
            parted,
            &ctx.options.config,
            ctx.threads,
        )?);
        Ok(())
    }
    fn ir_size(&self, ctx: &CompileCtx) -> usize {
        ctx.schedule.as_ref().map_or(0, |s| s.body_len.iter().sum())
    }
}

/// Register allocation + emission (stage 7). Per-core allocation and body
/// emission parallelize; images merge in core-index order.
struct RegallocEmitPass;

impl Pass for RegallocEmitPass {
    fn name(&self) -> &'static str {
        "regalloc-emit"
    }
    fn threads_used(&self, ctx: &CompileCtx) -> usize {
        ctx.threads
    }
    fn run(&self, ctx: &mut CompileCtx) -> Result<(), CompileError> {
        let parted = ctx.parted.as_ref().expect("partition ran");
        let schedule = ctx.schedule.as_ref().expect("schedule ran");
        ctx.emitted = Some(regalloc::emit(
            parted,
            schedule,
            &ctx.options.config,
            ctx.threads,
        )?);
        Ok(())
    }
    fn ir_size(&self, ctx: &CompileCtx) -> usize {
        ctx.emitted
            .as_ref()
            .map_or(0, |e| e.binary.total_instructions())
    }
}

fn parted_instrs(ctx: &CompileCtx) -> usize {
    ctx.parted
        .as_ref()
        .map_or(0, |p| p.processes.iter().map(|pr| pr.instrs.len()).sum())
}

/// Number of sink seeds in the monolithic program — the vertex count of
/// the maximal split graph (Table 8's |V|), before affinity merging.
fn count_split_units(mono: &lir::LirProgram) -> usize {
    let p = &mono.processes[0];
    let mut units = 0usize;
    let mut mems = std::collections::HashSet::new();
    let mut has_priv = false;
    for i in &p.instrs {
        match &i.op {
            lir::LirOp::CommitLocal { .. } => units += 1,
            lir::LirOp::LocalStore { mem, .. } | lir::LirOp::GlobalStore { mem, .. } => {
                mems.insert(mem.0);
            }
            lir::LirOp::Expect { .. } => has_priv = true,
            _ => {}
        }
    }
    units + mems.len() + has_priv as usize
}

/// Communication edges between merged processes (state producer/consumer
/// pairs) — an |E| analog after merging.
fn count_split_edges(parted: &lir::LirProgram) -> usize {
    let mut edges = std::collections::HashSet::new();
    for (pi, p) in parted.processes.iter().enumerate() {
        for instr in &p.instrs {
            if let lir::LirOp::Send { to_process, .. } = instr.op {
                edges.insert((pi, to_process));
            }
        }
    }
    edges.len()
}
