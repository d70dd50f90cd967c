//! Replay-engine edge cases: degenerate grids and programs that stress
//! the micro-op engine's boundary conditions — empty-body
//! (epilogue-only) cores, all-NOP bodies, a 1×1 grid, a grid at the
//! 256-dimension addressing limit, and Vcycles with zero sends. Every
//! scenario runs through the interpreter and the micro-op replay, and
//! must agree bit-for-bit (or report the identical error). Netlist-level
//! scenarios additionally sweep every backend through the unified
//! `Simulator` trait.

use manticore::isa::{AluOp, Binary, CoreId, CoreImage, Instruction, MachineConfig, Reg};
use manticore::machine::{Machine, MachineError};
use manticore::netlist::NetlistBuilder;
use manticore::sim::backends;

fn r(n: u16) -> Reg {
    Reg(n)
}

fn empty_binary(w: u32, h: u32, vcycle_len: u32) -> Binary {
    Binary {
        grid_width: w,
        grid_height: h,
        vcycle_len,
        cores: vec![],
        exceptions: vec![],
        init_dram: vec![],
    }
}

/// Runs `vcycles` on the micro-op replay engine (the default) and
/// asserts identical outcome, counters, and probed registers against the
/// position-by-position interpreter.
fn assert_engines_agree(config: &MachineConfig, binary: &Binary, vcycles: u64, probes: &[Reg]) {
    let mut reference = Machine::load(config.clone(), binary).expect("load");
    reference.set_replay(false);
    let ref_out = reference.run_vcycles(vcycles).expect("reference run");

    let mut m = Machine::load(config.clone(), binary).expect("load");
    let out = m
        .run_vcycles(vcycles)
        .unwrap_or_else(|e| panic!("replay run failed: {e}"));
    assert_eq!(ref_out.displays, out.displays, "displays");
    assert_eq!(ref_out.vcycles_run, out.vcycles_run, "vcycles");
    assert_eq!(reference.counters(), m.counters(), "counters");
    assert_eq!(
        reference.executed_per_core(),
        m.executed_per_core(),
        "executed"
    );
    for y in 0..config.grid_height as u8 {
        for x in 0..config.grid_width as u8 {
            for &p in probes {
                let core = CoreId::new(x, y);
                assert_eq!(
                    reference.read_reg(core, p),
                    m.read_reg(core, p),
                    "{core} {p}"
                );
            }
        }
    }
}

/// Runs on the replay engine and asserts it reports the interpreter's
/// error.
fn assert_engines_agree_on_error(
    config: &MachineConfig,
    binary: &Binary,
    vcycles: u64,
    strict: bool,
) -> MachineError {
    let mut reference = Machine::load(config.clone(), binary).expect("load");
    reference.set_strict_hazards(strict);
    reference.set_replay(false);
    let ref_err = reference
        .run_vcycles(vcycles)
        .expect_err("reference must fail");

    let mut m = Machine::load(config.clone(), binary).expect("load");
    m.set_strict_hazards(strict);
    let err = m.run_vcycles(vcycles).expect_err("replay run must fail");
    assert_eq!(ref_err, err, "error diverged");
    ref_err
}

#[test]
fn all_nop_bodies_run_on_every_engine() {
    // Nothing executes, but Vcycles still frame, wrap, and count. The
    // micro-op engine's active-core list is empty — the whole grid is
    // skipped — yet every counter matches the interpreter walking all
    // positions.
    let mut binary = empty_binary(2, 2, 7);
    for (x, y) in [(0u8, 0u8), (1, 0), (0, 1), (1, 1)] {
        binary.cores.push(CoreImage {
            core: CoreId::new(x, y),
            body: vec![Instruction::Nop; 5],
            epilogue_len: 0,
            custom_functions: vec![],
            init_regs: vec![(r(1), 7)],
            init_scratch: vec![],
        });
    }
    let config = MachineConfig::with_grid(2, 2);
    assert_engines_agree(&config, &binary, 6, &[r(1)]);

    let m = Machine::load(config, &binary).unwrap();
    let uops = m.micro_op_stats().expect("replayable");
    assert_eq!(uops, 0, "all-NOP program lowers to nothing");
}

#[test]
fn one_by_one_grid_runs_on_every_engine() {
    // The 1x1 grid: the privileged core is the whole machine; exercises
    // compute, scratchpad traffic, and predicate state with no NoC at all.
    let mut binary = empty_binary(1, 1, 10);
    binary.cores.push(CoreImage {
        core: CoreId::new(0, 0),
        body: vec![
            Instruction::Alu {
                op: AluOp::Add,
                rd: r(1),
                rs1: r(1),
                rs2: r(2),
            },
            Instruction::Predicate { rs: r(2) },
            Instruction::LocalStore {
                rs_data: r(2),
                rs_addr: r(0),
                base: 11,
            },
            Instruction::LocalLoad {
                rd: r(3),
                rs_addr: r(0),
                base: 11,
            },
        ],
        epilogue_len: 0,
        custom_functions: vec![],
        init_regs: vec![(r(2), 3)],
        init_scratch: vec![],
    });
    let config = MachineConfig {
        hazard_latency: 2,
        ..MachineConfig::with_grid(1, 1)
    };
    assert_engines_agree(&config, &binary, 8, &[r(1), r(2), r(3)]);
}

#[test]
fn grid_at_the_256_dimension_limit() {
    // 256x1: the largest addressable row. Core (255,0) sends across the
    // torus wrap to the privileged core; everything else is an idle
    // (empty-body, zero-epilogue) core the micro-op engine skips.
    let vcl = 24;
    let mut binary = empty_binary(256, 1, vcl);
    binary.cores.push(CoreImage {
        core: CoreId::new(255, 0),
        body: vec![
            Instruction::Alu {
                op: AluOp::Add,
                rd: r(1),
                rs1: r(1),
                rs2: r(2),
            },
            Instruction::Nop,
            Instruction::Nop,
            Instruction::Send {
                target: CoreId::new(0, 0),
                rd_remote: r(5),
                rs: r(1),
            },
        ],
        epilogue_len: 0,
        custom_functions: vec![],
        init_regs: vec![(r(1), 0), (r(2), 2)],
        init_scratch: vec![],
    });
    binary.cores.push(CoreImage {
        core: CoreId::new(0, 0),
        body: vec![Instruction::Nop; 10],
        epilogue_len: 1,
        custom_functions: vec![],
        init_regs: vec![],
        init_scratch: vec![],
    });
    let config = MachineConfig {
        // Keep the 256-core grid light: small per-core memories.
        regfile_size: 16,
        scratch_words: 16,
        hazard_latency: 2,
        injection_latency: 2,
        hop_latency: 1,
        ..MachineConfig::with_grid(256, 1)
    };
    assert_engines_agree(&config, &binary, 5, &[r(1), r(5)]);
}

#[test]
fn zero_send_vcycles_run_on_every_engine() {
    // Pure compute, empty delivery schedule: the replay engine's send
    // collection and delivery phases see zero traffic.
    let mut binary = empty_binary(2, 1, 8);
    for x in 0..2u8 {
        binary.cores.push(CoreImage {
            core: CoreId::new(x, 0),
            body: vec![
                Instruction::Alu {
                    op: AluOp::Add,
                    rd: r(1),
                    rs1: r(1),
                    rs2: r(2),
                },
                Instruction::Nop,
                Instruction::Nop,
                Instruction::Alu {
                    op: AluOp::Xor,
                    rd: r(3),
                    rs1: r(1),
                    rs2: r(2),
                },
            ],
            epilogue_len: 0,
            custom_functions: vec![],
            init_regs: vec![(r(2), x as u16 + 1)],
            init_scratch: vec![],
        });
    }
    let config = MachineConfig {
        hazard_latency: 2,
        ..MachineConfig::with_grid(2, 1)
    };
    assert_engines_agree(&config, &binary, 6, &[r(1), r(3)]);

    let m = Machine::load(config, &binary).unwrap();
    assert_eq!(m.counters().sends, 0);
}

#[test]
fn epilogue_only_core_fails_identically_on_every_engine() {
    // A core with an empty body and a declared epilogue can never be
    // scheduled legally: its slot 0 issues at position 0, before any
    // message can arrive. Strict mode reports the empty slot at issue;
    // permissive mode reports the late delivery — identically on every
    // engine (the failure happens in the validation Vcycle, so the replay
    // engine never even engages).
    let mut binary = empty_binary(2, 1, 12);
    binary.cores.push(CoreImage {
        core: CoreId::new(0, 0),
        body: vec![
            Instruction::Nop,
            Instruction::Send {
                target: CoreId::new(1, 0),
                rd_remote: r(5),
                rs: r(0),
            },
        ],
        epilogue_len: 0,
        custom_functions: vec![],
        init_regs: vec![],
        init_scratch: vec![],
    });
    binary.cores.push(CoreImage {
        core: CoreId::new(1, 0),
        body: vec![],
        epilogue_len: 1,
        custom_functions: vec![],
        init_regs: vec![],
        init_scratch: vec![],
    });
    let config = MachineConfig {
        hazard_latency: 2,
        injection_latency: 2,
        hop_latency: 1,
        ..MachineConfig::with_grid(2, 1)
    };

    let strict_err = assert_engines_agree_on_error(&config, &binary, 3, true);
    assert!(
        matches!(
            strict_err,
            MachineError::MissingScheduledMessage {
                slot: 0,
                position: 0,
                ..
            }
        ),
        "unexpected strict error: {strict_err:?}"
    );
    let permissive_err = assert_engines_agree_on_error(&config, &binary, 3, false);
    assert!(
        matches!(permissive_err, MachineError::LateMessage { slot: 0, .. }),
        "unexpected permissive error: {permissive_err:?}"
    );
}

#[test]
fn simulator_trait_sweeps_degenerate_netlists() {
    // The same edge shapes at the `Simulator` level: a 1x1-grid counter
    // and a design whose state never changes, across every backend
    // `backends()` constructs (interpreter, micro-op replay,
    // fleet, gang, and both Verilator-analog executors).
    for (label, grid, constant) in [("counter-1x1", 1usize, false), ("constant-2x2", 2, true)] {
        let mut b = NetlistBuilder::new(label);
        let reg = b.reg("state", 16, 5);
        if constant {
            // state' = state: zero-send, steady-state Vcycles.
            let q = reg.q();
            b.set_next(reg, q);
        } else {
            let one = b.lit(1, 16);
            let next = b.add(reg.q(), one);
            b.set_next(reg, next);
        }
        b.output("state", reg.q());
        let netlist = b.finish_build().expect("netlist");

        let config = MachineConfig::with_grid(grid, grid);
        let mut expected: Option<u64> = None;
        for mut sim in backends(&netlist, config, 2).expect("backends") {
            let outcome = sim.run_cycles(17).expect("run");
            assert_eq!(outcome.cycles_run, 17, "{label}: {}", sim.backend());
            let got = sim.rtl_reg("state").expect("state register").to_u64();
            match expected {
                None => expected = Some(got),
                Some(e) => assert_eq!(e, got, "{label}: {} diverged", sim.backend()),
            }
        }
        let want = if constant { 5 } else { 5 + 17 };
        assert_eq!(expected, Some(want), "{label}: wrong final state");
    }
}
