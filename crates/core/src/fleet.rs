//! The fleet entry point: compile a design once, run many scenarios.
//!
//! [`FleetSim`] is the netlist-level face of [`manticore_fleet`]: it
//! compiles a design exactly once (netlist → binary → frozen
//! [`CompiledProgram`] with its micro-op program), then runs
//! arbitrarily many [`FleetJob`]s against the shared artifact on a
//! work-stealing worker pool. Jobs differ in their *input vector* (RTL
//! registers overwritten by name before the run), engine knobs, and
//! Vcycle budget; results come back in submission order and are
//! bit-identical to running each job alone on a [`ManticoreSim`] — the
//! `fleet_equivalence` suite asserts exactly that.
//!
//! There are three calls: [`FleetSim::run_ganged`] runs a batch with up
//! to `lanes` compatible jobs per lockstep gang (`lanes = 1` runs every
//! job solo), [`FleetSim::run_ganged_with`] does the same under a
//! [`BatchPolicy`], and [`FleetSim::explore`] grows a coverage-guided
//! scenario tree.
//!
//! ```
//! use manticore::fleet::FleetSim;
//! use manticore::isa::MachineConfig;
//! use manticore::netlist::NetlistBuilder;
//!
//! let mut b = NetlistBuilder::new("counter");
//! let c = b.reg("count", 16, 0);
//! let one = b.lit(1, 16);
//! let next = b.add(c.q(), one);
//! b.set_next(c, next);
//! b.output("count", c.q());
//! let netlist = b.finish_build().unwrap();
//!
//! // One compilation, four scenarios with different starting counts,
//! // two workers.
//! let fleet = FleetSim::compile(&netlist, MachineConfig::with_grid(2, 2), 2)?;
//! let jobs: Vec<_> = (0..4)
//!     .map(|i| fleet.job(10).with_reg("count", i * 100).unwrap())
//!     .collect();
//! for (i, run) in fleet.run_ganged(jobs, 1).into_iter().enumerate() {
//!     assert_eq!(run.index, i as usize);
//!     run.result.as_ref().unwrap();
//!     let count = run.sim().read_rtl_reg_by_name("count").unwrap().to_u64();
//!     assert_eq!(count, i as u64 * 100 + 10);
//! }
//! # Ok::<(), manticore::SimError>(())
//! ```

use std::sync::Arc;
use std::time::Instant;

use manticore_compiler::{compile, CompileOptions, CompileOutput};
use manticore_fleet::CompiledProgram;
pub use manticore_fleet::{
    BatchPolicy, ExploreConfig, ExploreReport, FaultKind, FaultPlan, FaultPoint, Fleet, JobOutcome,
    JobOutput, SimJob,
};
use manticore_isa::{CoreId, MachineConfig, Reg};
use manticore_machine::{GangMachine, Machine, RunOutcome};
use manticore_util::CancelToken;

use crate::sim::{SimOutcome, SimPerf, Simulator};
use crate::{ManticoreSim, SimError};
use manticore_netlist::Netlist;

/// A design compiled once and shared by every job: the entry point for
/// compile-once / run-many simulation. See the module docs for a worked
/// example.
#[derive(Debug)]
pub struct FleetSim {
    output: Arc<CompileOutput>,
    program: Arc<CompiledProgram>,
    fleet: Fleet,
}

/// One scenario in a fleet batch: the shared program plus this run's
/// input vector (RTL register overwrites), engine knobs, and Vcycle
/// budget. Built by [`FleetSim::job`].
#[derive(Debug)]
pub struct FleetJob {
    inner: SimJob,
    output: Arc<CompileOutput>,
}

impl FleetJob {
    /// Sets RTL register `name` to `value` before the run starts — one
    /// element of the job's input vector. The register is resolved
    /// through the compiler's placement metadata and written into every
    /// machine register word it was mapped to (LSW first; `value` is
    /// truncated to the register's width, and registers wider than 64
    /// bits have their high words cleared).
    ///
    /// # Errors
    ///
    /// An unknown register name yields [`SimError::Assert`] describing
    /// the lookup failure (the job cannot run with a silently dropped
    /// input).
    pub fn with_reg(mut self, name: &str, value: u64) -> Result<FleetJob, SimError> {
        let words = crate::rtl_reg_words(&self.output, name, value).ok_or_else(|| {
            SimError::Assert(format!(
                "fleet job input names RTL register `{name}`, which does not exist \
                 in the optimized design"
            ))
        })?;
        for (core, mreg, word) in words {
            self.inner = self.inner.poke(core, mreg, word);
        }
        Ok(self)
    }

    /// Adds one raw machine-level element to the input vector: overwrite
    /// `reg` on `core` with `value` before the run starts. The
    /// netlist-level mirror of [`manticore_fleet::SimJob::poke`], for
    /// callers that already hold placement coordinates; named RTL
    /// registers should go through [`FleetJob::with_reg`], which resolves
    /// and width-masks them.
    #[must_use]
    pub fn poke(mut self, core: CoreId, reg: Reg, value: u16) -> FleetJob {
        self.inner = self.inner.poke(core, reg, value);
        self
    }

    /// Enables or disables the validate-once / replay-many fast path.
    #[must_use]
    pub fn replay(mut self, enabled: bool) -> FleetJob {
        self.inner = self.inner.replay(enabled);
        self
    }

    /// Selects strict or permissive hazard checking.
    #[must_use]
    pub fn strict_hazards(mut self, strict: bool) -> FleetJob {
        self.inner = self.inner.strict_hazards(strict);
        self
    }

    /// Attaches a wall-clock deadline to this job alone — see
    /// [`manticore_fleet::SimJob::deadline`]. Combines with a batch
    /// deadline ([`BatchPolicy::deadline`]) by taking the earlier one.
    #[must_use]
    pub fn deadline(mut self, deadline: Instant) -> FleetJob {
        self.inner = self.inner.deadline(deadline);
        self
    }

    /// Attaches a cancellation token to this job alone — see
    /// [`manticore_fleet::SimJob::cancel_token`]. Tripping it stops this
    /// run at the next Vcycle boundary without touching its batch-mates;
    /// it combines with a batch token ([`BatchPolicy::cancel`]) so
    /// whichever trips first wins.
    #[must_use]
    pub fn cancel_token(mut self, token: CancelToken) -> FleetJob {
        self.inner = self.inner.cancel_token(token);
        self
    }

    /// Unwraps the machine-level [`SimJob`], discarding the placement
    /// metadata handle — for callers that mix jobs from several designs
    /// into one [`Fleet`] batch (each `SimJob` carries its own program).
    pub fn into_sim_job(self) -> SimJob {
        self.inner
    }
}

/// One finished fleet scenario: the submission index, the typed
/// [`JobOutcome`], the run result, and a full [`ManticoreSim`] wrapped
/// around the finished machine — read registers back, inspect counters,
/// or keep running it.
#[derive(Debug)]
pub struct FleetRun {
    /// The job's position in the submitted batch;
    /// [`FleetSim::run_ganged`] returns runs sorted by it.
    pub index: usize,
    /// How the run ended.
    pub outcome: JobOutcome,
    /// The run outcome, or the failure that aborted it.
    pub result: Result<RunOutcome, SimError>,
    /// The finished simulation (its displays already include this run's
    /// output, also on the error path). `None` only when the job's worker
    /// panicked ([`JobOutcome::WorkerPanic`]) — unwound state is never
    /// exposed.
    pub sim: Option<ManticoreSim>,
}

impl FleetRun {
    /// The surviving simulation.
    ///
    /// # Panics
    ///
    /// If the job's worker panicked ([`JobOutcome::WorkerPanic`]) — check
    /// [`FleetRun::sim`] when the batch ran under a panic-injecting
    /// [`FaultPlan`].
    pub fn sim(&self) -> &ManticoreSim {
        self.sim
            .as_ref()
            .expect("job's worker panicked: no simulation state survives")
    }

    /// Consumes the run, yielding the surviving simulation; panics like
    /// [`FleetRun::sim`].
    pub fn into_sim(self) -> ManticoreSim {
        self.sim
            .expect("job's worker panicked: no simulation state survives")
    }
}

impl FleetSim {
    /// Compiles `netlist` once with default options for `config` and
    /// attaches a fleet of `workers` worker threads.
    ///
    /// # Errors
    ///
    /// Compilation or load failure.
    pub fn compile(
        netlist: &Netlist,
        config: MachineConfig,
        workers: usize,
    ) -> Result<FleetSim, SimError> {
        Self::compile_with(
            netlist,
            &CompileOptions {
                config,
                ..Default::default()
            },
            workers,
        )
    }

    /// Compiles with explicit options.
    ///
    /// # Errors
    ///
    /// Compilation or load failure.
    pub fn compile_with(
        netlist: &Netlist,
        options: &CompileOptions,
        workers: usize,
    ) -> Result<FleetSim, SimError> {
        let output = Arc::new(compile(netlist, options)?);
        Self::from_output(output, options.config.clone(), workers)
    }

    /// Builds a fleet over an already-compiled design, freezing the
    /// machine-level program once.
    ///
    /// # Errors
    ///
    /// Load failure (binary does not fit `config`).
    pub fn from_output(
        output: Arc<CompileOutput>,
        config: MachineConfig,
        workers: usize,
    ) -> Result<FleetSim, SimError> {
        let program = CompiledProgram::compile_shared(config, &output.binary)?;
        Ok(FleetSim {
            output,
            program,
            fleet: Fleet::new(workers),
        })
    }

    /// The shared frozen machine program (replay tape and micro-op
    /// streams included).
    pub fn program(&self) -> &Arc<CompiledProgram> {
        &self.program
    }

    /// The shared compiler output (binary, report, placement metadata).
    pub fn output(&self) -> &Arc<CompileOutput> {
        &self.output
    }

    /// The fleet's worker count.
    pub fn workers(&self) -> usize {
        self.fleet.workers()
    }

    /// A new job against the shared program with a budget of `vcycles`,
    /// ready for input-vector and knob configuration.
    pub fn job(&self, vcycles: u64) -> FleetJob {
        FleetJob {
            inner: SimJob::new(&self.program, vcycles),
            output: Arc::clone(&self.output),
        }
    }

    /// Runs the batch on the worker pool and returns the outcomes **in
    /// submission order** (`runs[i]` belongs to `jobs[i]`), regardless of
    /// worker interleaving. Compatible jobs (same knobs and budget — the
    /// input vectors may differ freely) execute up to `lanes` at a time
    /// in lockstep on a gang machine, one micro-op fetch per gang instead
    /// of per scenario; `lanes = 1` runs every job solo. Results do not
    /// depend on `lanes`; see [`Fleet::run_ganged_with`].
    pub fn run_ganged(&self, jobs: Vec<FleetJob>, lanes: usize) -> Vec<FleetRun> {
        self.run_ganged_with(jobs, lanes, &BatchPolicy::default())
    }

    /// [`FleetSim::run_ganged`] under a [`BatchPolicy`]: cooperative
    /// cancellation, a batch deadline, and/or a deterministic
    /// [`FaultPlan`]. An injected [`FaultKind::Error`] parks just its
    /// lane; the lane-mates run to completion.
    pub fn run_ganged_with(
        &self,
        jobs: Vec<FleetJob>,
        lanes: usize,
        policy: &BatchPolicy,
    ) -> Vec<FleetRun> {
        let sim_jobs: Vec<SimJob> = jobs.into_iter().map(|j| j.inner).collect();
        self.fleet
            .run_ganged_with(sim_jobs, lanes, policy)
            .into_iter()
            .map(|out| self.wrap_output(out))
            .collect()
    }

    /// Coverage-guided scenario-tree exploration over this design
    /// ([`manticore_fleet::Fleet::explore`] at the netlist level):
    /// repeatedly checkpoints frontier states, forks each into a gang of
    /// children with fuzzed stimulus on the named RTL registers, and
    /// keeps the children that raise toggle coverage. `stimulus` names
    /// are resolved through the compiler's placement metadata into
    /// per-word `(core, reg, mask)` triples — fuzz values are masked to
    /// each register's width, exactly like [`FleetJob::with_reg`] inputs.
    /// Any stimulus already present in `cfg` is kept. See
    /// [`manticore_fleet::Fleet::explore`] for how the policy's
    /// cancellation, deadline, and fault injection interact with the
    /// tree's determinism.
    ///
    /// # Errors
    ///
    /// [`SimError::Assert`] for an unknown stimulus register name, or the
    /// root warm-up's failure.
    pub fn explore(
        &self,
        stimulus: &[&str],
        cfg: &ExploreConfig,
        policy: &BatchPolicy,
    ) -> Result<ExploreReport, SimError> {
        let mut cfg = cfg.clone();
        for name in stimulus {
            // Resolving with an all-ones value yields each word's width
            // mask, which is exactly what the fuzzer needs.
            let words = crate::rtl_reg_words(&self.output, name, u64::MAX).ok_or_else(|| {
                SimError::Assert(format!(
                    "exploration stimulus names RTL register `{name}`, which does not \
                     exist in the optimized design"
                ))
            })?;
            for (core, mreg, mask) in words {
                cfg.stimulus.push((core, mreg, mask));
            }
        }
        self.fleet
            .explore(&self.program, &cfg, policy)
            .map_err(SimError::from)
    }

    fn wrap_output(&self, out: JobOutput) -> FleetRun {
        let Some(mut machine) = out.machine else {
            // The job's worker panicked: there is no machine to wrap,
            // only the structured failure.
            return FleetRun {
                index: out.index,
                outcome: out.outcome,
                result: Err(out
                    .result
                    .expect_err("a panicked job always carries an error")
                    .into()),
                sim: None,
            };
        };
        let (result, displays) = match out.result {
            Ok(outcome) => {
                let displays = outcome.displays.clone();
                (Ok(outcome), displays)
            }
            // Keep displays observable on the error path, the way
            // `ManticoreSim::run` does.
            Err(e) => (Err(e.into()), machine.drain_pending_displays()),
        };
        FleetRun {
            index: out.index,
            outcome: out.outcome,
            result,
            sim: Some(ManticoreSim::from_existing(
                machine,
                Arc::clone(&self.output),
                displays,
            )),
        }
    }
}

// ---------------------------------------------------------------------
// The fleet rows of `backends()`
// ---------------------------------------------------------------------

/// A [`Simulator`] backend that executes on a fleet worker pool: each
/// `run_cycles` call dispatches the machine to the pool as a one-job
/// batch and takes it back afterwards. Architecturally identical to the
/// direct machine backends (same `Machine`, same engines) — what it adds
/// is coverage: the fleet dispatch path runs under every agreement test
/// that sweeps [`crate::sim::backends`].
#[derive(Debug)]
pub struct FleetBackend {
    fleet: Fleet,
    /// `None` only transiently inside `run_cycles`.
    machine: Option<Machine>,
    output: Arc<CompileOutput>,
    displays: Vec<String>,
    wall_seconds: f64,
}

impl FleetBackend {
    /// Wraps a fresh run of `program` in a fleet of `workers`.
    pub fn new(
        program: &Arc<CompiledProgram>,
        output: Arc<CompileOutput>,
        workers: usize,
    ) -> FleetBackend {
        FleetBackend {
            fleet: Fleet::new(workers),
            machine: Some(Machine::from_program(Arc::clone(program))),
            output,
            displays: Vec::new(),
            wall_seconds: 0.0,
        }
    }
}

impl Simulator for FleetBackend {
    fn backend(&self) -> String {
        let base = format!("manticore-fleet({})", self.fleet.workers());
        // Same replay suffix convention as the direct machine backends
        // (`ManticoreSim::backend`).
        let machine = self.machine.as_ref().expect("machine present at rest");
        if machine.replay_armed() {
            format!("{base}+uops")
        } else {
            base
        }
    }

    fn run_cycles(&mut self, max_cycles: u64) -> Result<SimOutcome, SimError> {
        let machine = self.machine.take().expect("machine is only taken here");
        let start = Instant::now();
        let mut outputs = self.fleet.run_ganged_with(
            vec![SimJob::resume(machine, max_cycles)],
            1,
            &BatchPolicy::default(),
        );
        self.wall_seconds += start.elapsed().as_secs_f64();
        let out = outputs.pop().expect("one job in, one output out");
        // A single resumed job under the default (empty) fault plan never
        // panics its worker, so the machine always survives.
        let mut machine = out
            .machine
            .expect("resumed job without injected faults keeps its machine");
        let result = match out.result {
            Ok(outcome) => {
                self.displays.extend(outcome.displays.iter().cloned());
                Ok(SimOutcome {
                    cycles_run: outcome.vcycles_run,
                    finished: outcome.finished,
                    displays: outcome.displays,
                })
            }
            Err(e) => {
                self.displays.extend(machine.drain_pending_displays());
                Err(e.into())
            }
        };
        self.machine = Some(machine);
        result
    }

    fn displays(&self) -> &[String] {
        &self.displays
    }

    fn perf(&self) -> SimPerf {
        let machine = self.machine.as_ref().expect("machine present at rest");
        let counters = machine.counters();
        SimPerf {
            cycles: counters.vcycles,
            wall_seconds: self.wall_seconds,
            model_rate_khz: Some(machine.config().simulation_rate_khz(machine.vcycle_len())),
            counters: Some(counters),
        }
    }

    fn rtl_reg(&self, name: &str) -> Option<manticore_bits::Bits> {
        let machine = self.machine.as_ref().expect("machine present at rest");
        crate::rtl_reg_of(machine, &self.output, name)
    }
}

// ---------------------------------------------------------------------
// The gang rows of `backends()`
// ---------------------------------------------------------------------

/// A [`Simulator`] backend that executes as a `k`-lane lockstep gang
/// ([`GangMachine`]): every lane boots the same design, `run_cycles`
/// advances all of them together, and the trait's observers read lane 0.
/// Architecturally identical to the direct machine backends — what it
/// adds is coverage of the lane-batched dispatch and the lane-row state
/// layout under every agreement test that sweeps
/// [`crate::sim::backends`].
#[derive(Debug)]
pub struct GangBackend {
    gang: GangMachine,
    output: Arc<CompileOutput>,
    displays: Vec<String>,
    wall_seconds: f64,
}

impl GangBackend {
    /// Boots a `lanes`-lane gang of `program`.
    pub fn new(
        program: &Arc<CompiledProgram>,
        output: Arc<CompileOutput>,
        lanes: usize,
    ) -> GangBackend {
        GangBackend {
            gang: GangMachine::from_program(Arc::clone(program), lanes),
            output,
            displays: Vec::new(),
            wall_seconds: 0.0,
        }
    }
}

impl Simulator for GangBackend {
    fn backend(&self) -> String {
        let base = format!("manticore-gang({})", self.gang.lanes());
        // Same replay suffix convention as the other machine backends.
        if self.gang.replay_armed() {
            format!("{base}+uops")
        } else {
            base
        }
    }

    fn run_cycles(&mut self, max_cycles: u64) -> Result<SimOutcome, SimError> {
        let start = Instant::now();
        let mut results = self.gang.run_vcycles(max_cycles);
        self.wall_seconds += start.elapsed().as_secs_f64();
        // Lane 0 is the face of the backend; the other lanes execute the
        // identical scenario in lockstep and must agree with it.
        match results.swap_remove(0) {
            Ok(outcome) => {
                self.displays.extend(outcome.displays.iter().cloned());
                Ok(SimOutcome {
                    cycles_run: outcome.vcycles_run,
                    finished: outcome.finished,
                    displays: outcome.displays,
                })
            }
            Err(e) => {
                self.displays.extend(self.gang.drain_pending_displays(0));
                Err(e.into())
            }
        }
    }

    fn displays(&self) -> &[String] {
        &self.displays
    }

    fn perf(&self) -> SimPerf {
        let counters = self.gang.counters(0);
        SimPerf {
            cycles: counters.vcycles,
            wall_seconds: self.wall_seconds,
            model_rate_khz: Some(
                self.gang
                    .config()
                    .simulation_rate_khz(self.gang.vcycle_len()),
            ),
            counters: Some(counters),
        }
    }

    fn rtl_reg(&self, name: &str) -> Option<manticore_bits::Bits> {
        crate::rtl_reg_read(&self.output, name, |core, mreg| {
            self.gang.read_reg(0, core, mreg)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manticore_netlist::NetlistBuilder;

    fn counter_netlist() -> Netlist {
        let mut b = NetlistBuilder::new("c");
        let r = b.reg("count", 16, 0);
        let one = b.lit(1, 16);
        let next = b.add(r.q(), one);
        b.set_next(r, next);
        b.output("count", r.q());
        b.finish_build().unwrap()
    }

    #[test]
    fn fleet_sim_runs_distinct_inputs_in_order() {
        let n = counter_netlist();
        let fleet = FleetSim::compile(&n, MachineConfig::with_grid(2, 2), 3).unwrap();
        let jobs: Vec<FleetJob> = (0..7u64)
            .map(|i| fleet.job(5).with_reg("count", i * 1000).unwrap())
            .collect();
        let runs = fleet.run_ganged(jobs, 1);
        for (i, run) in runs.iter().enumerate() {
            assert_eq!(run.index, i);
            assert!(run.result.is_ok());
            assert!(!run.outcome.is_failure());
            assert_eq!(
                run.sim().read_rtl_reg_by_name("count").unwrap().to_u64(),
                i as u64 * 1000 + 5
            );
        }
    }

    #[test]
    fn unknown_register_is_an_error_not_a_silent_noop() {
        let n = counter_netlist();
        let fleet = FleetSim::compile(&n, MachineConfig::with_grid(2, 2), 1).unwrap();
        assert!(fleet.job(1).with_reg("no_such_reg", 1).is_err());
    }
}
