//! Backend agreement: the Verilator-analog tape simulators (serial and
//! macro-task parallel) must agree with the reference evaluator on the
//! real workloads — the baseline side of Table 3 rests on this — and
//! every `Simulator` backend `backends()` constructs (machine
//! interpreter, micro-op replay, fleet, gang, and the two Verilator-analog
//! executors) must agree with each other through nothing but the trait.

use manticore::isa::MachineConfig;
use manticore::netlist::eval::Evaluator;
use manticore::refsim::{ParallelSim, SerialSim, Tape};
use manticore::sim::backends;
use manticore::workloads;

#[test]
fn serial_tape_matches_evaluator_on_all_workloads() {
    for w in workloads::all() {
        let tape =
            Tape::compile(&w.netlist).unwrap_or_else(|e| panic!("{}: tape failed: {e}", w.name));
        let mut fast = SerialSim::new(&tape);
        let mut slow = Evaluator::new(&w.netlist);
        for cycle in 0..60u64 {
            let fe = fast.step();
            let se = slow.step();
            assert_eq!(
                fe.displays, se.displays,
                "{}: displays at cycle {cycle}",
                w.name
            );
            for (ri, reg) in w.netlist.registers().iter().enumerate() {
                assert_eq!(
                    fast.reg_value(ri).to_u64(),
                    slow.reg_value(ri).to_u64(),
                    "{}: register `{}` at cycle {cycle}",
                    w.name,
                    reg.name
                );
            }
            if se.finished {
                break;
            }
        }
    }
}

#[test]
fn parallel_tape_matches_serial_on_all_workloads() {
    for w in workloads::all() {
        let tape = Tape::compile(&w.netlist).unwrap();
        let cycles = 40;
        let mut serial = SerialSim::new(&tape);
        for _ in 0..cycles {
            serial.step();
        }
        for threads in [2, 4] {
            let par = ParallelSim::new(&tape, threads, 32);
            let run = par.run(cycles);
            assert!(
                run.failed_assert.is_none(),
                "{}: parallel run failed an assertion",
                w.name
            );
            for ri in 0..w.netlist.registers().len() {
                assert_eq!(
                    run.final_regs[ri],
                    serial.reg_value(ri).to_u64(),
                    "{}: register {ri} diverged with {threads} threads",
                    w.name
                );
            }
        }
    }
}

#[test]
fn every_simulator_backend_agrees_on_every_workload() {
    // One interface, every engine: run each workload on all backends and
    // require identical architectural observations — displays (which carry
    // the self-checking testbench's output) and every RTL register that
    // survives in all backends' compiled forms.
    for w in workloads::all() {
        let cycles = w.test_cycles.min(24);
        let config = MachineConfig::with_grid(6, 6);
        let mut sims = backends(&w.netlist, config, 2)
            .unwrap_or_else(|e| panic!("{}: backend construction failed: {e}", w.name));
        let mut results = Vec::new();
        for sim in &mut sims {
            let name = sim.backend();
            let outcome = sim
                .run_cycles(cycles)
                .unwrap_or_else(|e| panic!("{}: {name} failed: {e}", w.name));
            results.push((name, outcome));
        }
        let (ref_name, ref_outcome) = &results[0];
        for (name, outcome) in &results[1..] {
            assert_eq!(
                &ref_outcome.displays, &outcome.displays,
                "{}: displays diverged between {ref_name} and {name}",
                w.name
            );
            assert_eq!(
                ref_outcome.finished, outcome.finished,
                "{}: finish diverged between {ref_name} and {name}",
                w.name
            );
        }
        // Register agreement, by name, where the register exists in every
        // backend's compiled design (optimization may prune some).
        let mut compared = 0usize;
        for reg in w.netlist.registers() {
            let values: Vec<_> = sims.iter().map(|s| s.rtl_reg(&reg.name)).collect();
            if values.iter().any(|v| v.is_none()) {
                continue;
            }
            compared += 1;
            for (i, v) in values.iter().enumerate().skip(1) {
                assert_eq!(
                    values[0].as_ref().unwrap().to_u64(),
                    v.as_ref().unwrap().to_u64(),
                    "{}: register `{}` diverged between {} and {}",
                    w.name,
                    reg.name,
                    sims[0].backend(),
                    sims[i].backend()
                );
            }
        }
        assert!(compared > 0, "{}: no registers were comparable", w.name);
        // Perf snapshots are coherent: every backend simulated the cycles.
        for sim in &sims {
            assert_eq!(
                sim.perf().cycles,
                ref_outcome.cycles_run,
                "{}",
                sim.backend()
            );
        }
    }
}

#[test]
fn soc_agrees_across_backends() {
    // The SoC compile-stress workload through every backend — `backends()`
    // compiles with worker threads, so this also drives the parallel pass
    // pipeline through a memory-heavy multi-tile design.
    let netlist = workloads::soc_sized(4, 3, 2000);
    let config = MachineConfig::with_grid(6, 6);
    let mut sims = backends(&netlist, config, 2).expect("soc backends");
    let mut results = Vec::new();
    for sim in &mut sims {
        let name = sim.backend();
        let outcome = sim
            .run_cycles(24)
            .unwrap_or_else(|e| panic!("soc: {name} failed: {e}"));
        results.push((name, outcome));
    }
    let (ref_name, ref_outcome) = &results[0];
    for (name, outcome) in &results[1..] {
        assert_eq!(
            &ref_outcome.displays, &outcome.displays,
            "soc: displays diverged between {ref_name} and {name}"
        );
        assert_eq!(
            ref_outcome.finished, outcome.finished,
            "soc: finish diverged between {ref_name} and {name}"
        );
    }
    let mut compared = 0usize;
    for reg in netlist.registers() {
        let values: Vec<_> = sims.iter().map(|s| s.rtl_reg(&reg.name)).collect();
        if values.iter().any(|v| v.is_none()) {
            continue;
        }
        compared += 1;
        for (i, v) in values.iter().enumerate().skip(1) {
            assert_eq!(
                values[0].as_ref().unwrap().to_u64(),
                v.as_ref().unwrap().to_u64(),
                "soc: register `{}` diverged between {} and {}",
                reg.name,
                sims[0].backend(),
                sims[i].backend()
            );
        }
    }
    assert!(compared > 0, "soc: no registers were comparable");
}

#[test]
fn step_sizes_span_the_expected_range() {
    // The suite must exercise a wide range of granularities for the
    // scaling experiments to be meaningful.
    let sizes: Vec<usize> = workloads::all()
        .iter()
        .map(|w| Tape::compile(&w.netlist).unwrap().step_size())
        .collect();
    let max = *sizes.iter().max().unwrap();
    let min = *sizes.iter().min().unwrap();
    assert!(
        max / min >= 10,
        "step sizes {sizes:?} span less than one order of magnitude"
    );
}
