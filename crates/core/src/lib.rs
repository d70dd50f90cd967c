//! # Manticore: hardware-accelerated RTL simulation, in software
//!
//! A reproduction of *"Manticore: Hardware-Accelerated RTL Simulation with
//! Static Bulk-Synchronous Parallelism"* (ASPLOS 2024): a compiler that
//! statically schedules RTL simulation onto a grid of simple 16-bit cores
//! with zero runtime synchronization, plus a cycle-accurate model of that
//! grid, a Verilator-analog baseline simulator, and the paper's nine
//! benchmark workloads.
//!
//! ## Quick start
//!
//! ```
//! use manticore::prelude::*;
//!
//! // Describe a circuit (the netlist DSL stands in for the Verilog
//! // frontend).
//! let mut b = NetlistBuilder::new("counter");
//! let count = b.reg("count", 16, 0);
//! let one = b.lit(1, 16);
//! let next = b.add(count.q(), one);
//! b.set_next(count, next);
//! let limit = b.lit(100, 16);
//! let done = b.eq(count.q(), limit);
//! b.finish(done);
//! let netlist = b.finish_build()?;
//!
//! // Compile for a 2×2 grid and simulate on the Manticore machine model.
//! let config = MachineConfig::with_grid(2, 2);
//! let mut sim = ManticoreSim::compile(&netlist, config)?;
//! let outcome = sim.run(1_000)?;
//! assert!(outcome.finished);
//! assert_eq!(outcome.vcycles_run, 101);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## Crate map
//!
//! - [`manticore_netlist`] — netlist IR, builder DSL, reference evaluator;
//! - [`manticore_compiler`] — the static-BSP compiler (Fig. 4 pipeline);
//! - [`manticore_machine`] — cycle-accurate grid model (the FPGA stand-in);
//! - [`manticore_refsim`] — Verilator-analog baseline (serial + macro-task
//!   parallel) and the §7.1 scaling models;
//! - [`manticore_workloads`] — the nine evaluation benchmarks;
//! - [`manticore_isa`] / [`manticore_bits`] — the ISA and bit-vector
//!   foundations.

pub use manticore_bits as bits;
pub use manticore_compiler as compiler;
pub use manticore_isa as isa;
pub use manticore_machine as machine;
pub use manticore_netlist as netlist;
pub use manticore_refsim as refsim;
pub use manticore_util as util;
pub use manticore_workloads as workloads;

pub mod fleet;
pub mod sim;

/// One-stop imports for typical use.
pub mod prelude {
    pub use manticore_bits::Bits;
    pub use manticore_compiler::{compile, CompileOptions, PartitionStrategy};
    pub use manticore_isa::{CoreId, MachineConfig, Reg};
    pub use manticore_machine::{
        Checkpoint, CompiledProgram, CoverageMap, GangMachine, Interrupt, Machine, MachineError,
        RunOutcome, MAX_LANES,
    };
    pub use manticore_netlist::{eval::Evaluator, NetlistBuilder};
    pub use manticore_util::CancelToken;

    pub use crate::fleet::{
        BatchPolicy, FaultKind, FaultPlan, FaultPoint, Fleet, FleetJob, FleetRun, FleetSim,
        JobOutcome, JobOutput, SimJob,
    };
    pub use crate::sim::{Simulator, TapeSim};
    pub use crate::ManticoreSim;
}

use manticore_bits::Bits;
use manticore_compiler::{compile, CompileError, CompileOptions, CompileOutput};
use manticore_isa::MachineConfig;
use manticore_machine::{Machine, MachineError, RunOutcome};
use manticore_netlist::Netlist;
use manticore_refsim::TapeError;

/// Errors from the high-level simulation flow.
#[derive(Debug)]
pub enum SimError {
    /// Compilation failed.
    Compile(CompileError),
    /// The machine rejected the binary or hit a runtime violation.
    Machine(MachineError),
    /// The Verilator-analog tape could not be built for this design.
    Tape(TapeError),
    /// A testbench assertion (`expect_true`) failed.
    Assert(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Compile(e) => write!(f, "compile: {e}"),
            SimError::Machine(e) => write!(f, "machine: {e}"),
            SimError::Tape(e) => write!(f, "tape: {e}"),
            SimError::Assert(m) => write!(f, "assertion failed: {m}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<CompileError> for SimError {
    fn from(e: CompileError) -> Self {
        SimError::Compile(e)
    }
}

impl From<MachineError> for SimError {
    fn from(e: MachineError) -> Self {
        SimError::Machine(e)
    }
}

/// A compiled design loaded on the Manticore machine model — the
/// "compile it, run it, read the state back" flow of the paper's runtime.
#[derive(Debug)]
pub struct ManticoreSim {
    machine: Machine,
    /// Shared so several machines (e.g. replay on and off) can run
    /// one compiled design without recompiling.
    output: std::sync::Arc<CompileOutput>,
    displays: Vec<String>,
    wall_seconds: f64,
}

impl ManticoreSim {
    /// Compiles `netlist` with default options for `config` and boots a
    /// machine.
    ///
    /// # Errors
    ///
    /// Compilation or load failure.
    pub fn compile(netlist: &Netlist, config: MachineConfig) -> Result<Self, SimError> {
        Self::compile_with(
            netlist,
            &CompileOptions {
                config,
                ..Default::default()
            },
        )
    }

    /// Compiles with explicit options.
    ///
    /// # Errors
    ///
    /// Compilation or load failure.
    pub fn compile_with(netlist: &Netlist, options: &CompileOptions) -> Result<Self, SimError> {
        let output = compile(netlist, options)?;
        Self::from_output(std::sync::Arc::new(output), options.config.clone())
    }

    /// Boots a machine from an already-compiled design. Lets several
    /// simulators (e.g. the interpreter and the replay engine) share one
    /// compilation.
    ///
    /// # Errors
    ///
    /// Load failure (binary does not fit `config`).
    pub fn from_output(
        output: std::sync::Arc<CompileOutput>,
        config: MachineConfig,
    ) -> Result<Self, SimError> {
        let machine = Machine::load(config, &output.binary)?;
        Ok(ManticoreSim {
            machine,
            output,
            displays: Vec::new(),
            wall_seconds: 0.0,
        })
    }

    /// Boots a fresh run of an already-frozen machine program — the
    /// compile-once / run-many path: every call shares `program`'s
    /// micro-op program instead of rebuilding it.
    pub fn from_program(
        program: std::sync::Arc<manticore_machine::CompiledProgram>,
        output: std::sync::Arc<CompileOutput>,
    ) -> Self {
        ManticoreSim {
            machine: Machine::from_program(program),
            output,
            displays: Vec::new(),
            wall_seconds: 0.0,
        }
    }

    /// Wraps a machine that already ran elsewhere (a fleet worker),
    /// seeding the display history it produced there.
    pub(crate) fn from_existing(
        machine: Machine,
        output: std::sync::Arc<CompileOutput>,
        displays: Vec<String>,
    ) -> Self {
        ManticoreSim {
            machine,
            output,
            displays,
            wall_seconds: 0.0,
        }
    }

    /// Enables or disables the machine's validate-once / replay-many fast
    /// path (on by default; bit-identical either way).
    pub fn set_replay(&mut self, enabled: bool) {
        self.machine.set_replay(enabled);
    }

    /// Selects strict or permissive hazard checking — the solo mirror of
    /// the fleet job knob ([`crate::fleet::FleetJob::strict_hazards`]).
    pub fn set_strict_hazards(&mut self, strict: bool) {
        self.machine.set_strict_hazards(strict);
    }

    /// Runs up to `max_vcycles` RTL cycles.
    ///
    /// # Errors
    ///
    /// Assertion failures and determinism violations.
    pub fn run(&mut self, max_vcycles: u64) -> Result<RunOutcome, SimError> {
        let start = std::time::Instant::now();
        let result = self.machine.run_vcycles(max_vcycles);
        self.wall_seconds += start.elapsed().as_secs_f64();
        match result {
            Ok(outcome) => {
                self.displays.extend(outcome.displays.iter().cloned());
                Ok(outcome)
            }
            Err(e) => {
                // Keep displays() consistent across backends: output that
                // fired before the failure is still observable (and does
                // not leak into a later run).
                self.displays.extend(self.machine.drain_pending_displays());
                Err(e.into())
            }
        }
    }

    /// All `$display` output produced so far, in order.
    pub fn all_displays(&self) -> &[String] {
        &self.displays
    }

    /// Host wall-clock seconds spent inside [`ManticoreSim::run`].
    pub fn wall_seconds(&self) -> f64 {
        self.wall_seconds
    }

    /// Reads an RTL register (by its index in the *optimized* netlist,
    /// [`ManticoreSim::netlist`]) back from the machine's register files.
    pub fn read_rtl_reg(&self, index: usize) -> Bits {
        let reg = &self.output.optimized.registers()[index];
        let loc = &self.output.metadata.reg_locations[index];
        let words: Vec<u16> = loc
            .words
            .iter()
            .map(|&(core, mreg)| self.machine.read_reg(core, mreg))
            .collect();
        Bits::from_words16(&words, reg.width)
    }

    /// Looks up an RTL register by name and reads it back.
    pub fn read_rtl_reg_by_name(&self, name: &str) -> Option<Bits> {
        rtl_reg_of(&self.machine, &self.output, name)
    }

    /// Overwrites RTL register `name` with `value` (truncated to the
    /// register's width), writing every machine register word it was
    /// placed into — how a run plants its input vector before the first
    /// Vcycle. Returns `false` if the optimized design has no such
    /// register.
    pub fn write_rtl_reg_by_name(&mut self, name: &str, value: u64) -> bool {
        let Some(words) = rtl_reg_words(&self.output, name, value) else {
            return false;
        };
        for (core, mreg, word) in words {
            self.machine.poke_reg(core, mreg, word);
        }
        true
    }

    /// The optimized netlist the machine is executing (registers may have
    /// been renumbered or removed relative to the input design).
    pub fn netlist(&self) -> &Netlist {
        &self.output.optimized
    }

    /// Compiler output: binary, report, metadata.
    pub fn compile_output(&self) -> &CompileOutput {
        &self.output
    }

    /// The underlying machine (counters, cache stats, raw state).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Snapshots the simulation at its current Vcycle boundary — the
    /// netlist-level face of [`Machine::checkpoint`]. Restore it here
    /// ([`ManticoreSim::restore`]) or explode it into a gang of divergent
    /// children (`Checkpoint::fork`).
    pub fn checkpoint(&self) -> manticore_machine::Checkpoint {
        self.machine.checkpoint()
    }

    /// Rewinds the simulation to a previously captured snapshot, engine
    /// knobs included.
    ///
    /// # Errors
    ///
    /// [`manticore_machine::MachineError::CheckpointMismatch`] (as
    /// [`SimError::Machine`]) when the snapshot belongs to a different
    /// compilation; the simulation is left untouched in that case.
    pub fn restore(&mut self, cp: &manticore_machine::Checkpoint) -> Result<(), SimError> {
        self.machine.restore(cp).map_err(SimError::from)
    }

    /// Achieved simulation rate in kHz at the configured clock: the
    /// paper's headline metric, `clock / VCPL`.
    pub fn simulation_rate_khz(&self) -> f64 {
        self.machine
            .config()
            .simulation_rate_khz(self.machine.vcycle_len())
    }
}

/// Reads RTL register `name` back through `output`'s placement metadata,
/// with the machine-register reads supplied by `read` — the one read-side
/// resolver, shared by [`ManticoreSim::read_rtl_reg_by_name`], the fleet
/// backend, the gang backend (whose lanes are not `Machine`s), and any
/// service that holds a finished machine plus the compilation it ran.
/// Returns `None` if the optimized design has no register named `name`.
///
/// ```
/// # use manticore::prelude::*;
/// # let mut b = NetlistBuilder::new("c");
/// # let r = b.reg("count", 16, 0);
/// # let one = b.lit(1, 16);
/// # let next = b.add(r.q(), one);
/// # b.set_next(r, next);
/// # b.output("count", r.q());
/// # let n = b.finish_build().unwrap();
/// # let mut sim = ManticoreSim::compile(&n, MachineConfig::with_grid(2, 2)).unwrap();
/// # sim.run(3).unwrap();
/// # let (machine, output) = (sim.machine(), sim.compile_output());
/// let bits = manticore::rtl_reg_read(output, "count", |core, reg| {
///     machine.read_reg(core, reg)
/// });
/// assert_eq!(bits.unwrap().to_u64(), 3);
/// ```
pub fn rtl_reg_read(
    output: &CompileOutput,
    name: &str,
    read: impl Fn(manticore_isa::CoreId, manticore_isa::Reg) -> u16,
) -> Option<Bits> {
    let idx = output
        .optimized
        .registers()
        .iter()
        .position(|r| r.name == name)?;
    let reg = &output.optimized.registers()[idx];
    let words: Vec<u16> = output.metadata.reg_locations[idx]
        .words
        .iter()
        .map(|&(core, mreg)| read(core, mreg))
        .collect();
    Some(Bits::from_words16(&words, reg.width))
}

/// Reads RTL register `name` back out of `machine` — the backend-agnostic
/// form of [`ManticoreSim::read_rtl_reg_by_name`]. `None` if the
/// optimized design has no register named `name`.
pub fn rtl_reg_of(machine: &Machine, output: &CompileOutput, name: &str) -> Option<Bits> {
    rtl_reg_read(output, name, |core, mreg| machine.read_reg(core, mreg))
}

/// Splits `value` into the per-word machine register writes that plant it
/// into RTL register `name`: LSW first, each word masked to the bits of
/// the register it actually holds (so out-of-width bits are truncated,
/// not injected into the datapath), and words beyond `value`'s 64 bits
/// cleared. `None` if the optimized design has no such register. The one
/// write-side resolver, shared by [`ManticoreSim::write_rtl_reg_by_name`],
/// the fleet job input vectors, and any service that builds
/// machine-level pokes from named RTL registers.
pub fn rtl_reg_words(
    output: &CompileOutput,
    name: &str,
    value: u64,
) -> Option<Vec<(manticore_isa::CoreId, manticore_isa::Reg, u16)>> {
    let idx = output
        .optimized
        .registers()
        .iter()
        .position(|r| r.name == name)?;
    let reg = &output.optimized.registers()[idx];
    Some(
        output.metadata.reg_locations[idx]
            .words
            .iter()
            .enumerate()
            .map(|(w, &(core, mreg))| {
                let lo = 16 * w;
                // A register wider than 64 bits has more words than the
                // u64 payload; the high words are zeroed, not a shift UB.
                let word = if lo < 64 { (value >> lo) as u16 } else { 0 };
                let bits = reg.width.saturating_sub(lo).min(16);
                let mask = if bits >= 16 {
                    0xffff
                } else {
                    (1u16 << bits) - 1
                };
                (core, mreg, word & mask)
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use manticore_netlist::NetlistBuilder;

    #[test]
    fn facade_counter_flow() {
        let mut b = NetlistBuilder::new("c");
        let r = b.reg("count", 16, 0);
        let one = b.lit(1, 16);
        let next = b.add(r.q(), one);
        b.set_next(r, next);
        b.output("count", r.q());
        let n = b.finish_build().unwrap();
        let mut sim = ManticoreSim::compile(&n, MachineConfig::with_grid(2, 2)).unwrap();
        sim.run(7).unwrap();
        assert_eq!(sim.read_rtl_reg_by_name("count").unwrap().to_u64(), 7);
        assert!(sim.simulation_rate_khz() > 0.0);
    }

    #[test]
    fn write_rtl_reg_masks_to_width_and_handles_wide_registers() {
        // A 40-bit register (3 machine words, top word holds 8 bits) and
        // an 80-bit register (5 words — more than a u64 payload covers).
        let mut b = NetlistBuilder::new("wide");
        let r40 = b.reg("r40", 40, 0);
        b.set_next(r40, r40.q());
        b.output("r40", r40.q());
        let r80 = b.reg("r80", 80, 0);
        b.set_next(r80, r80.q());
        b.output("r80", r80.q());
        let n = b.finish_build().unwrap();
        let mut sim = ManticoreSim::compile(&n, MachineConfig::with_grid(2, 2)).unwrap();

        // Out-of-width bits are truncated, not injected into the state.
        assert!(sim.write_rtl_reg_by_name("r40", 0x1FF_FFFF_FFFF));
        assert_eq!(
            sim.read_rtl_reg_by_name("r40").unwrap().to_u64(),
            0xFF_FFFF_FFFF
        );

        // Words beyond the 64-bit payload are cleared (no shift overflow).
        assert!(sim.write_rtl_reg_by_name("r80", u64::MAX));
        let r80v = sim.read_rtl_reg_by_name("r80").unwrap();
        assert_eq!(r80v.to_u128(), u64::MAX as u128, "high word stays 0");

        assert!(!sim.write_rtl_reg_by_name("nope", 1));
    }

    #[test]
    fn facade_errors_are_typed() {
        let mut b = NetlistBuilder::new("open");
        let i = b.input("x", 8);
        let r = b.reg("r", 8, 0);
        b.set_next(r, i);
        let n = b.finish_build().unwrap();
        match ManticoreSim::compile(&n, MachineConfig::with_grid(1, 1)) {
            Err(SimError::Compile(_)) => {}
            other => panic!("expected compile error, got {other:?}"),
        }
    }
}
