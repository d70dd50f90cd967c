//! The Manticore compiler: netlists → statically-scheduled machine binaries.
//!
//! The pipeline mirrors Fig. 4 of the paper, expressed as an explicit
//! [`pass::PassManager`] over a shared [`pass::CompileCtx`]:
//!
//! 1. **optimize** — netlist-level constant folding, CSE, DCE ([`opt`]);
//! 2. **lower** — width legalization onto the 16-bit datapath ([`lower`]);
//! 3. **optimize** — lower-assembly CSE/DCE ([`lir_opt`]);
//! 4. **partition** — split into per-sink cones, merge communication-aware
//!    ([`partition`]);
//! 5. **custom instructions** — MFFC fusion into 4-input LUT ops ([`cfu`]);
//! 6. **schedule** — list scheduling against the pipeline-hazard and
//!    NoC-routing models ([`schedule`]);
//! 7. **register allocation + emission** — persistent/linear-scan
//!    allocation, current/next coalescing, binary emission ([`regalloc`]).
//!
//! The manager wraps every pass with wall-time and IR-size instrumentation
//! ([`report::PassStat`]). There is one pipeline:
//! [`CompileOptions::compile_threads`] only sets how many workers the
//! heavy passes fan their independent per-cone / per-process work out
//! over, and the emitted binary is **bit-identical** at any thread count
//! — the compile-determinism suite compares the binaries byte-for-byte
//! across thread counts.
//!
//! Both intermediate representations are executable: the netlist via
//! `manticore_netlist::eval` and the lower assembly via [`interp`] — the
//! compiler's differential-testing backbone, as in the paper.
//!
//! # Examples
//!
//! ```
//! use manticore_compiler::{compile, CompileOptions};
//! use manticore_netlist::NetlistBuilder;
//!
//! let mut b = NetlistBuilder::new("counter");
//! let r = b.reg("count", 16, 0);
//! let one = b.lit(1, 16);
//! let next = b.add(r.q(), one);
//! b.set_next(r, next);
//! let netlist = b.finish_build().unwrap();
//!
//! let out = compile(&netlist, &CompileOptions::default()).unwrap();
//! assert!(out.binary.vcycle_len > 0);
//! ```

pub mod bitset;
pub mod cfu;
pub mod error;
pub mod interp;
pub mod lir;
pub mod lir_opt;
pub mod lower;
pub mod opt;
pub mod partition;
pub mod pass;
pub mod regalloc;
pub mod report;
pub mod schedule;

#[cfg(test)]
mod oracle;
#[cfg(test)]
mod tests;

use manticore_isa::{Binary, MachineConfig};
use manticore_netlist::Netlist;

pub use error::CompileError;
pub use partition::PartitionStrategy;
pub use pass::{CompileControl, CompileCtx, Pass, PassManager};
pub use report::{
    CompileReport, CoreBreakdown, MemLocation, Metadata, PassStat, RegLocation, SplitStats,
};

/// Compilation options.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// Target machine configuration.
    pub config: MachineConfig,
    /// Merge strategy (the paper's `B` vs `L`, Fig. 9).
    pub partition: PartitionStrategy,
    /// Enable custom-function synthesis (§6.2; Fig. 10 ablates this).
    pub custom_functions: bool,
    /// Enable netlist-level optimization.
    pub netlist_opt: bool,
    /// Compiler worker threads for the heavy passes' parallel stages.
    /// `1` (the default) runs them inline on the caller; `0` resolves to
    /// `available_parallelism`. The output is bit-identical at any value.
    pub compile_threads: usize,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            config: MachineConfig::default(),
            partition: PartitionStrategy::Balanced,
            custom_functions: true,
            netlist_opt: true,
            compile_threads: 1,
        }
    }
}

impl CompileOptions {
    /// The worker count the pipeline will actually run with: `0` resolves
    /// to `available_parallelism` (1 when unknown), any other value is
    /// taken as-is.
    pub fn resolved_compile_threads(&self) -> usize {
        match self.compile_threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        }
    }
}

/// A compiled design.
#[derive(Debug, Clone)]
pub struct CompileOutput {
    /// The loadable machine binary.
    pub binary: Binary,
    /// The optimized netlist actually compiled (RTL ids in the metadata
    /// refer to *this* netlist).
    pub optimized: Netlist,
    /// The partitioned lower-assembly program (drives the interpreter and
    /// the scaling analyses).
    pub lir: lir::LirProgram,
    /// Where RTL state lives on the machine.
    pub metadata: Metadata,
    /// Per-pass timings and instruction-mix statistics.
    pub report: CompileReport,
}

impl CompileOutput {
    /// Predicted simulation rate in kHz at the configured clock
    /// (`clock / VCPL` — the paper's headline metric).
    pub fn simulation_rate_khz(&self, config: &MachineConfig) -> f64 {
        config.simulation_rate_khz(self.report.vcpl)
    }
}

/// Compiles a netlist for the configured machine.
///
/// # Errors
///
/// See [`CompileError`]; notably designs with primary inputs are rejected
/// (test harnesses must be closed) and resource overflows are reported per
/// core.
pub fn compile(netlist: &Netlist, options: &CompileOptions) -> Result<CompileOutput, CompileError> {
    compile_controlled(netlist, options, &CompileControl::default())
}

/// [`compile`] under a [`CompileControl`]: the pipeline polls the control
/// between passes and inside the partition merge loop, so a tripped
/// deadline or cancel token stops the compile with a structured
/// [`CompileError::DeadlineExceeded`] / [`CompileError::Cancelled`]
/// instead of running a huge or hostile design to completion. The serving
/// layer uses this to bound how long one untrusted netlist can hold a
/// compile slot.
///
/// # Errors
///
/// Everything [`compile`] reports, plus the control's interruptions.
pub fn compile_controlled(
    netlist: &Netlist,
    options: &CompileOptions,
    control: &CompileControl,
) -> Result<CompileOutput, CompileError> {
    let threads = options.resolved_compile_threads();
    let mut ctx = CompileCtx::new(netlist, options, threads);
    ctx.control = control.clone();
    PassManager::standard().run(&mut ctx)?;

    let parted = ctx.parted.take().expect("pipeline ran");
    let schedule = ctx.schedule.take().expect("pipeline ran");
    let emitted = ctx.emitted.take().expect("pipeline ran");
    let optimized = ctx.optimized.take().expect("pipeline ran");
    let mut report = ctx.report;

    report.vcpl = schedule.vcycle_len;
    report.processes = parted.processes.len();
    report.cores_used = parted
        .processes
        .iter()
        .filter(|p| !p.instrs.is_empty())
        .count();
    report.per_core = emitted.per_core.clone();
    report.total_sends = emitted.per_core.iter().map(|b| b.sends).sum();
    report.total_custom = emitted.per_core.iter().map(|b| b.custom).sum();
    report.total_instructions = emitted.per_core.iter().map(|b| b.compute + b.sends).sum();

    Ok(CompileOutput {
        binary: emitted.binary,
        optimized,
        lir: parted,
        metadata: emitted.metadata,
        report,
    })
}
