//! The unified simulation interface: one trait over every backend.
//!
//! The repository contains several ways to execute the same RTL design:
//!
//! | backend | engine | crate |
//! |---|---|---|
//! | `manticore-serial` | machine grid, position-by-position reference interpreter | `manticore_machine` |
//! | `manticore-serial+uops` | machine grid, validate-once / replay-many fused micro-ops over SoA state | `manticore_machine` |
//! | `manticore-fleet(k)` | machine grid dispatched through a `k`-worker fleet pool | `manticore_fleet` |
//! | `manticore-gang(k)` | `k` lockstep lanes over lane-row state, one micro-op fetch per gang | `manticore_machine` |
//! | `tape-serial` | Verilator-analog tape, one thread | `manticore_refsim` |
//! | `tape-parallel(k)` | Verilator-analog macro-tasks, `k` threads | `manticore_refsim` |
//!
//! The machine backends report a `+uops` suffix while replay is armed:
//! the Vcycle-periodic replay fast path is on by default and
//! bit-identical to the interpreter (see `manticore_machine`'s crate
//! docs), so agreement tests sweep both explicitly.
//!
//! Before this trait existed, every experiment binary and agreement test
//! hand-rolled its own glue per backend. [`Simulator`] gives them one
//! vocabulary: run cycles, read displays, read performance, read an RTL
//! register back by name.

use std::sync::Arc;
use std::time::Instant;

use manticore_bits::Bits;
use manticore_compiler::{compile, CompileOptions};
use manticore_machine::PerfCounters;
use manticore_netlist::Netlist;
use manticore_refsim::{serial, MacroTaskPlan, Tape, TapeState};

use crate::{ManticoreSim, SimError};

/// Outcome of one [`Simulator::run_cycles`] call.
#[derive(Debug, Clone, Default)]
pub struct SimOutcome {
    /// Cycles actually simulated (fewer than requested if the design
    /// finished).
    pub cycles_run: u64,
    /// True if `$finish` fired during this call.
    pub finished: bool,
    /// `$display` output produced during this call, in order.
    pub displays: Vec<String>,
}

/// Performance snapshot of a backend, cumulative since construction.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimPerf {
    /// Simulated RTL cycles so far.
    pub cycles: u64,
    /// Host wall-clock seconds spent simulating.
    pub wall_seconds: f64,
    /// Modeled hardware rate in kHz (machine backends: `clock / VCPL`),
    /// the paper's Table 3 metric. `None` for host-measured backends.
    pub model_rate_khz: Option<f64>,
    /// Hardware performance counters (machine backends only).
    pub counters: Option<PerfCounters>,
}

impl SimPerf {
    /// Host-measured simulation rate in kHz.
    pub fn measured_rate_khz(&self) -> f64 {
        if self.wall_seconds == 0.0 {
            f64::INFINITY
        } else {
            self.cycles as f64 / self.wall_seconds / 1e3
        }
    }
}

/// A resumable RTL simulation backend.
///
/// Implementations hold the design *and* its simulation state: successive
/// [`Simulator::run_cycles`] calls continue where the last one stopped,
/// and all observers (`displays`, `perf`, `rtl_reg`) reflect everything
/// simulated so far.
///
/// # Examples
///
/// Drive the same counter design on two backends and compare them through
/// nothing but the trait:
///
/// ```
/// use manticore::netlist::NetlistBuilder;
/// use manticore::sim::{backends, Simulator};
///
/// let mut b = NetlistBuilder::new("counter");
/// let c = b.reg("count", 16, 0);
/// let one = b.lit(1, 16);
/// let next = b.add(c.q(), one);
/// b.set_next(c, next);
/// b.output("count", c.q());
/// let netlist = b.finish_build().unwrap();
///
/// let config = manticore::isa::MachineConfig::with_grid(2, 2);
/// for mut sim in backends(&netlist, config, 2)? {
///     let outcome = sim.run_cycles(25)?;
///     assert_eq!(outcome.cycles_run, 25, "{}", sim.backend());
///     assert_eq!(sim.rtl_reg("count").unwrap().to_u64(), 25);
///     assert_eq!(sim.perf().cycles, 25);
/// }
/// # Ok::<(), manticore::SimError>(())
/// ```
pub trait Simulator {
    /// Short backend identifier, e.g. `manticore-serial+uops`.
    fn backend(&self) -> String;

    /// Simulates up to `max_cycles` RTL cycles from the current state.
    ///
    /// # Errors
    ///
    /// Determinism violations and assertion failures abort the run.
    fn run_cycles(&mut self, max_cycles: u64) -> Result<SimOutcome, SimError>;

    /// All `$display` output so far, in order.
    fn displays(&self) -> &[String];

    /// Cumulative performance snapshot.
    fn perf(&self) -> SimPerf;

    /// Reads an RTL register back by its netlist name. `None` if the
    /// design (as this backend compiled it) has no such register.
    fn rtl_reg(&self, name: &str) -> Option<Bits>;
}

// ---------------------------------------------------------------------
// Machine-grid backend (ManticoreSim implements the trait directly)
// ---------------------------------------------------------------------

impl Simulator for ManticoreSim {
    fn backend(&self) -> String {
        let base = "manticore-serial";
        if self.machine().replay_armed() {
            format!("{base}+uops")
        } else {
            base.to_string()
        }
    }

    fn run_cycles(&mut self, max_cycles: u64) -> Result<SimOutcome, SimError> {
        let outcome = self.run(max_cycles)?;
        Ok(SimOutcome {
            cycles_run: outcome.vcycles_run,
            finished: outcome.finished,
            displays: outcome.displays,
        })
    }

    fn displays(&self) -> &[String] {
        self.all_displays()
    }

    fn perf(&self) -> SimPerf {
        let counters = self.machine().counters();
        SimPerf {
            cycles: counters.vcycles,
            wall_seconds: self.wall_seconds(),
            model_rate_khz: Some(self.simulation_rate_khz()),
            counters: Some(counters),
        }
    }

    fn rtl_reg(&self, name: &str) -> Option<Bits> {
        self.read_rtl_reg_by_name(name)
    }
}

// ---------------------------------------------------------------------
// Tape backends (Verilator analog)
// ---------------------------------------------------------------------

/// Which executor a [`TapeSim`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TapeMode {
    /// Single-threaded full-cycle evaluation.
    Serial,
    /// Macro-task parallel evaluation (`verilator --threads` analog).
    Parallel {
        /// Worker-thread count.
        threads: usize,
        /// Minimum ops per macro-task during coarsening.
        grain: usize,
    },
}

/// The Verilator-analog baseline as a [`Simulator`]: owns the compiled
/// tape and its state, so it is resumable across `run_cycles` calls and
/// can even switch executors between them.
#[derive(Debug)]
pub struct TapeSim {
    tape: Tape,
    state: TapeState,
    mode: TapeMode,
    /// Macro-task plan, built once at construction (parallel mode only).
    plan: Option<MacroTaskPlan>,
    reg_names: Vec<String>,
    displays: Vec<String>,
    finished: bool,
    wall_seconds: f64,
}

impl TapeSim {
    /// Compiles `netlist` for the given executor.
    ///
    /// # Errors
    ///
    /// Tape compilation fails on nets wider than 64 bits.
    pub fn new(netlist: &Netlist, mode: TapeMode) -> Result<Self, SimError> {
        let tape = Tape::compile(netlist).map_err(SimError::Tape)?;
        let plan = match mode {
            TapeMode::Serial => None,
            TapeMode::Parallel { threads, grain } => {
                Some(MacroTaskPlan::build(&tape, threads, grain))
            }
        };
        Ok(TapeSim {
            state: TapeState::new(&tape),
            tape,
            mode,
            plan,
            reg_names: netlist.registers().iter().map(|r| r.name.clone()).collect(),
            displays: Vec::new(),
            finished: false,
            wall_seconds: 0.0,
        })
    }

    /// Single-threaded baseline.
    ///
    /// # Errors
    ///
    /// Tape compilation failure.
    pub fn serial(netlist: &Netlist) -> Result<Self, SimError> {
        Self::new(netlist, TapeMode::Serial)
    }

    /// Macro-task parallel baseline.
    ///
    /// # Errors
    ///
    /// Tape compilation failure.
    pub fn parallel(netlist: &Netlist, threads: usize, grain: usize) -> Result<Self, SimError> {
        Self::new(netlist, TapeMode::Parallel { threads, grain })
    }

    /// The compiled tape (op count, step size).
    pub fn tape(&self) -> &Tape {
        &self.tape
    }
}

impl Simulator for TapeSim {
    fn backend(&self) -> String {
        match self.mode {
            TapeMode::Serial => "tape-serial".into(),
            TapeMode::Parallel { threads, .. } => format!("tape-parallel({threads})"),
        }
    }

    fn run_cycles(&mut self, max_cycles: u64) -> Result<SimOutcome, SimError> {
        if self.finished {
            return Ok(SimOutcome::default());
        }
        let mut outcome = SimOutcome::default();
        let start = Instant::now();
        match self.mode {
            TapeMode::Serial => {
                for _ in 0..max_cycles {
                    let ev = serial::step_state(&self.tape, &mut self.state);
                    outcome.cycles_run += 1;
                    outcome.displays.extend(ev.displays);
                    if let Some(m) = ev.failed_assert {
                        self.wall_seconds += start.elapsed().as_secs_f64();
                        self.displays.extend(outcome.displays);
                        return Err(SimError::Assert(m));
                    }
                    if ev.finished {
                        outcome.finished = true;
                        break;
                    }
                }
            }
            TapeMode::Parallel { .. } => {
                let plan = self.plan.as_ref().expect("parallel mode has a plan");
                let run = plan.run_with(&self.tape, &mut self.state, max_cycles);
                outcome.cycles_run = run.stats.cycles;
                outcome.finished = run.stats.finished;
                outcome.displays = run.displays;
                if let Some(m) = run.failed_assert {
                    self.wall_seconds += start.elapsed().as_secs_f64();
                    self.displays.extend(outcome.displays);
                    return Err(SimError::Assert(m));
                }
            }
        }
        self.wall_seconds += start.elapsed().as_secs_f64();
        self.displays.extend(outcome.displays.iter().cloned());
        if outcome.finished {
            self.finished = true;
        }
        Ok(outcome)
    }

    fn displays(&self) -> &[String] {
        &self.displays
    }

    fn perf(&self) -> SimPerf {
        SimPerf {
            cycles: self.state.cycle,
            wall_seconds: self.wall_seconds,
            model_rate_khz: None,
            counters: None,
        }
    }

    fn rtl_reg(&self, name: &str) -> Option<Bits> {
        let idx = self.reg_names.iter().position(|n| n == name)?;
        Some(self.state.reg_value(&self.tape, idx))
    }
}

// ---------------------------------------------------------------------
// Convenience constructors
// ---------------------------------------------------------------------

/// Builds one of every backend for `netlist`: Manticore serial (the
/// position-by-position reference interpreter), Manticore serial with the
/// fused micro-op replay stream, the fleet-dispatched machine (a
/// `threads`-worker pool), the lane-batched gang machine (a
/// `threads`-lane lockstep gang), tape serial, and tape parallel with
/// `threads` workers.
///
/// All machine-grid backends share **one** compilation *and* one frozen
/// [`manticore_machine::CompiledProgram`] — the replay schedule and
/// micro-op streams are built once and aliased, the compile-once /
/// run-many path the fleet engine scales up.
///
/// # Errors
///
/// Compilation or load failure on any backend.
pub fn backends(
    netlist: &Netlist,
    config: manticore_isa::MachineConfig,
    threads: usize,
) -> Result<Vec<Box<dyn Simulator>>, SimError> {
    // One compilation and one frozen program feed all machine backends.
    let options = CompileOptions {
        config: config.clone(),
        ..Default::default()
    };
    let output = Arc::new(compile(netlist, &options)?);
    let program = manticore_machine::CompiledProgram::compile_shared(config, &output.binary)?;
    let mut serial_machine = ManticoreSim::from_program(program.clone(), output.clone());
    serial_machine.set_replay(false);
    let uop_machine = ManticoreSim::from_program(program.clone(), output.clone());
    // One fleet row: its `run_cycles` dispatches a single resume job, so
    // the pool engages one worker per call regardless of capacity — the
    // coverage it adds is the dispatch/steal path itself, which a second
    // row would merely repeat.
    let fleet = crate::fleet::FleetBackend::new(&program, output.clone(), threads);
    // One gang row: the lane-row strict kernel plus the validation
    // Vcycle, which steps each lane on the solo engine. (The same
    // per-lane fallback runs every permissive, interpreter or disarmed
    // Vcycle; the machine crate's unit tests and the gang equivalence
    // suite drive those knobs.)
    let gang = crate::fleet::GangBackend::new(&program, output, threads);
    Ok(vec![
        Box::new(serial_machine),
        Box::new(uop_machine),
        Box::new(fleet),
        Box::new(gang),
        Box::new(TapeSim::serial(netlist)?),
        Box::new(TapeSim::parallel(netlist, threads, 32)?),
    ])
}
