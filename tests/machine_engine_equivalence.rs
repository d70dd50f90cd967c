//! The validate-once / replay-many engine (the fused micro-op stream) must
//! be bit-identical to the position-by-position grid interpreter on every
//! real workload: same final register state, same displays, same
//! `PerfCounters` and cache statistics. Replay runs strict Vcycles only,
//! so the sweep is strict; a permissive run executes on the interpreter
//! (the machine unit tests pin that it is never armed).
//!
//! This is the machine-side analog of `backend_agreement.rs` (which covers
//! the Verilator-analog tape executors): together they pin down that every
//! fast execution path in the repository is an exact, not approximate,
//! speedup.

use manticore::bits::Bits;
use manticore::compiler::{compile, CompileOptions};
use manticore::isa::MachineConfig;
use manticore::machine::Machine;
use manticore::workloads;

const GRID: usize = 6;
const VCYCLES: u64 = 40;

/// Reads every RTL register back out of the machine's register files using
/// the compiler's placement metadata.
fn rtl_regs(machine: &Machine, out: &manticore::compiler::CompileOutput) -> Vec<Bits> {
    out.optimized
        .registers()
        .iter()
        .enumerate()
        .map(|(ri, reg)| {
            let loc = &out.metadata.reg_locations[ri];
            let words: Vec<u16> = loc
                .words
                .iter()
                .map(|&(core, mreg)| machine.read_reg(core, mreg))
                .collect();
            Bits::from_words16(&words, reg.width)
        })
        .collect()
}

/// Sweeps the replay engine against the plain interpreter on every
/// workload, both under the default strict hazard checks.
#[test]
fn replay_lowerings_are_bit_identical_on_all_workloads() {
    for w in workloads::all() {
        let config = MachineConfig::with_grid(GRID, GRID);
        let options = CompileOptions {
            config: config.clone(),
            ..Default::default()
        };
        let out = compile(&w.netlist, &options)
            .unwrap_or_else(|e| panic!("{}: compile failed: {e}", w.name));

        // Reference: the plain position-by-position interpreter.
        let mut serial = Machine::load(config.clone(), &out.binary)
            .unwrap_or_else(|e| panic!("{}: load failed: {e}", w.name));
        serial.set_replay(false);
        let s_run = serial
            .run_vcycles(VCYCLES)
            .unwrap_or_else(|e| panic!("{}: serial run failed: {e}", w.name));
        let s_regs = rtl_regs(&serial, &out);

        // The replay engine (the default) against it.
        let what = "serial+uops";
        let mut par = Machine::load(config.clone(), &out.binary).unwrap();
        // Replay must actually engage (no unreplayable program, no static
        // cross-Vcycle hazard), or this sweep compares the interpreter
        // with itself.
        assert!(par.replay_armed(), "{}: {what} not armed", w.name);
        let p_run = par
            .run_vcycles(VCYCLES)
            .unwrap_or_else(|e| panic!("{}: {what} run failed: {e}", w.name));

        assert_eq!(
            s_run.displays, p_run.displays,
            "{}: displays diverged at {what}",
            w.name
        );
        assert_eq!(
            s_run.finished, p_run.finished,
            "{}: finish flag diverged at {what}",
            w.name
        );
        assert_eq!(
            s_run.vcycles_run, p_run.vcycles_run,
            "{}: vcycle count diverged at {what}",
            w.name
        );
        assert_eq!(
            serial.counters(),
            par.counters(),
            "{}: PerfCounters diverged at {what}",
            w.name
        );
        assert_eq!(
            serial.cache_stats(),
            par.cache_stats(),
            "{}: cache stats diverged at {what}",
            w.name
        );
        let p_regs = rtl_regs(&par, &out);
        for (ri, reg) in out.optimized.registers().iter().enumerate() {
            assert_eq!(
                s_regs[ri], p_regs[ri],
                "{}: register `{}` diverged at {what}",
                w.name, reg.name
            );
        }
    }
}

#[test]
fn replay_mode_switches_are_seamless() {
    // Replay can be toggled between `run_vcycles` calls without
    // perturbing a single architectural bit: the machine state at every
    // Vcycle boundary is engine-independent.
    let w = workloads::by_name("mm").unwrap();
    let config = MachineConfig::with_grid(GRID, GRID);
    let options = CompileOptions {
        config: config.clone(),
        ..Default::default()
    };
    let out = compile(&w.netlist, &options).unwrap();

    let mut reference = Machine::load(config.clone(), &out.binary).unwrap();
    reference.set_replay(false);
    reference.run_vcycles(36).unwrap();

    let mut mixed = Machine::load(config.clone(), &out.binary).unwrap();
    mixed.run_vcycles(6).unwrap(); // validation + micro-op replay (default)
    mixed.set_replay(false);
    mixed.run_vcycles(6).unwrap(); // full interpreter
    mixed.set_replay(true);
    mixed.run_vcycles(6).unwrap(); // back onto micro-op replay
    mixed.set_replay(false);
    mixed.run_vcycles(6).unwrap(); // interpreter again
    mixed.set_replay(true);
    mixed.run_vcycles(12).unwrap(); // micro-op replay
    assert_eq!(reference.counters(), mixed.counters());
    let a = rtl_regs(&reference, &out);
    let b = rtl_regs(&mixed, &out);
    for (ri, reg) in out.optimized.registers().iter().enumerate() {
        assert_eq!(a[ri], b[ri], "register `{}` diverged", reg.name);
    }
}
