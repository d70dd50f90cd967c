//! Failure injection: corrupting a correct schedule must trip the
//! machine's determinism checks — the guarantees that make static BSP
//! trustworthy. Each test breaks the compiler's contract a different way
//! and asserts the machine catches it.

use manticore::compiler::{compile, CompileOptions};
use manticore::isa::{Instruction, MachineConfig, Reg};
use manticore::machine::{CompiledProgram, GangMachine, Machine, MachineError};
use manticore::netlist::NetlistBuilder;

fn config() -> MachineConfig {
    MachineConfig {
        grid_width: 2,
        grid_height: 2,
        hazard_latency: 4,
        ..Default::default()
    }
}

fn compiled_counter() -> (manticore::isa::Binary, MachineConfig) {
    let mut b = NetlistBuilder::new("victim");
    let r = b.reg("c", 32, 0);
    let one = b.lit(1, 32);
    let next = b.add(r.q(), one);
    b.set_next(r, next);
    b.output("c", r.q());
    let n = b.finish_build().unwrap();
    let cfg = config();
    let out = compile(
        &n,
        &CompileOptions {
            config: cfg.clone(),
            ..Default::default()
        },
    )
    .unwrap();
    (out.binary, cfg)
}

#[test]
fn baseline_binary_is_clean() {
    let (binary, cfg) = compiled_counter();
    let mut m = Machine::load(cfg, &binary).unwrap();
    m.run_vcycles(20).unwrap();
}

/// Compacting the schedule (dropping the compiler's NOPs) creates data
/// hazards the pipeline model must flag.
#[test]
fn squeezing_out_nops_creates_hazards() {
    let (mut binary, cfg) = compiled_counter();
    let mut squeezed = false;
    for core in &mut binary.cores {
        let non_nop: Vec<Instruction> = core
            .body
            .iter()
            .copied()
            .filter(|i| !matches!(i, Instruction::Nop))
            .collect();
        if non_nop.len() >= 2 && non_nop.len() < core.body.len() {
            squeezed = true;
            core.body = non_nop;
        }
    }
    assert!(squeezed, "expected schedules to contain NOPs");
    let mut m = Machine::load(cfg, &binary).unwrap();
    match m.run_vcycles(5) {
        Err(MachineError::Hazard { .. }) => {}
        other => panic!("expected a hazard, got {other:?}"),
    }
}

/// A counter compiled for one core with its NOPs squeezed out: the
/// compacted body reads results the pipeline has not committed yet.
/// (Single-core machine so the only broken contract is the pipeline
/// hazard, not NoC timing.)
fn squeezed_single_core_counter() -> (manticore::isa::Binary, MachineConfig) {
    let cfg = MachineConfig {
        grid_width: 1,
        grid_height: 1,
        hazard_latency: 4,
        ..Default::default()
    };
    let mut b = NetlistBuilder::new("victim");
    let r = b.reg("c", 32, 0);
    let one = b.lit(1, 32);
    let next = b.add(r.q(), one);
    b.set_next(r, next);
    b.output("c", r.q());
    let n = b.finish_build().unwrap();
    let out = compile(
        &n,
        &CompileOptions {
            config: cfg.clone(),
            ..Default::default()
        },
    )
    .unwrap();
    let mut binary = out.binary;
    for core in &mut binary.cores {
        let non_nop: Vec<Instruction> = core
            .body
            .iter()
            .copied()
            .filter(|i| !matches!(i, Instruction::Nop))
            .collect();
        if non_nop.len() >= 2 && non_nop.len() < core.body.len() {
            core.body = non_nop;
        }
    }
    (binary, cfg)
}

/// With strict checking off the same corruption silently computes wrong
/// values — what would happen on the real hardware.
#[test]
fn permissive_mode_corrupts_silently() {
    let (binary, cfg) = squeezed_single_core_counter();
    let mut m = Machine::load(cfg, &binary).unwrap();
    m.set_strict_hazards(false);
    // Runs "fine" — garbage in, garbage out.
    m.run_vcycles(5).unwrap();
}

/// Permissive gang lanes read the same stale values a permissive solo run
/// reads: every lane of a gang running the squeezed counter equals a solo
/// machine given the same pokes, register for register.
#[test]
fn permissive_gang_lanes_read_stale_values_like_solo_runs() {
    let (binary, cfg) = squeezed_single_core_counter();
    let mut strict = Machine::load(cfg.clone(), &binary).unwrap();
    assert!(
        matches!(strict.run_vcycles(5), Err(MachineError::Hazard { .. })),
        "the squeezed body must perform a stale read"
    );
    let program = CompiledProgram::compile_shared(cfg.clone(), &binary).unwrap();
    let lanes = 3;
    let mut gang = GangMachine::from_program(program.clone(), lanes);
    gang.set_strict_hazards(false);
    assert!(
        !gang.replay_armed(),
        "permissive lanes run on the interpreter"
    );
    // Distinct data per lane: every initialised register is offset by the
    // lane index.
    let pokes = |lane: usize| {
        binary.cores.iter().flat_map(move |core| {
            core.init_regs
                .iter()
                .map(move |&(reg, v)| (core.core, reg, v.wrapping_add(lane as u16)))
        })
    };
    for lane in 0..lanes {
        for (core, reg, v) in pokes(lane) {
            gang.poke_reg(lane, core, reg, v);
        }
    }
    let results = gang.run_vcycles(5);
    let mut finals = Vec::new();
    for (lane, result) in results.iter().enumerate() {
        let mut solo = Machine::from_program(program.clone());
        solo.set_strict_hazards(false);
        for (core, reg, v) in pokes(lane) {
            solo.poke_reg(core, reg, v);
        }
        let want = solo.run_vcycles(5).unwrap();
        let got = result.as_ref().unwrap();
        assert_eq!(got.vcycles_run, want.vcycles_run, "lane {lane}");
        assert_eq!(got.displays, want.displays, "lane {lane}");
        assert_eq!(got.finished, want.finished, "lane {lane}");
        assert_eq!(gang.counters(lane), solo.counters(), "lane {lane}");
        let mut regs = Vec::new();
        for core in &binary.cores {
            for r in 0..cfg.regfile_size {
                let reg = Reg(r as u16);
                assert_eq!(
                    gang.read_reg(lane, core.core, reg),
                    solo.read_reg(core.core, reg),
                    "lane {lane} {:?} r{r}",
                    core.core
                );
                regs.push(solo.read_reg(core.core, reg));
            }
        }
        finals.push(regs);
    }
    assert!(
        finals[0] != finals[1] && finals[1] != finals[2],
        "lanes must compute distinct values"
    );
}

/// Declaring a bigger epilogue than messages sent starves the SET slots.
/// Strict mode reports the starved slot the moment it issues; permissive
/// mode lets it NOP and catches the shortfall at the Vcycle wrap.
#[test]
fn phantom_epilogue_detected() {
    let (mut binary, cfg) = compiled_counter();
    binary.cores[0].epilogue_len += 1;

    let mut strict = Machine::load(cfg.clone(), &binary).unwrap();
    match strict.run_vcycles(2) {
        Err(MachineError::MissingScheduledMessage { .. }) => {}
        other => panic!("expected missing scheduled message, got {other:?}"),
    }

    let mut permissive = Machine::load(cfg, &binary).unwrap();
    permissive.set_strict_hazards(false);
    match permissive.run_vcycles(2) {
        Err(MachineError::MissingMessages { expected, got, .. }) => {
            assert!(expected > got);
        }
        other => panic!("expected missing messages, got {other:?}"),
    }
}

/// An unscheduled extra Send collides or overflows the target's epilogue.
#[test]
fn rogue_send_detected() {
    let (mut binary, cfg) = compiled_counter();
    // Make core (1,0) fire a Send nobody scheduled, at a random register.
    let target = manticore::isa::CoreId::new(0, 0);
    let rogue = Instruction::Send {
        target,
        rd_remote: Reg(1),
        rs: Reg(0),
    };
    if let Some(c) = binary
        .cores
        .iter_mut()
        .find(|c| c.core == manticore::isa::CoreId::new(1, 0))
    {
        c.body.insert(0, rogue);
    } else {
        binary.cores.push(manticore::isa::CoreImage {
            core: manticore::isa::CoreId::new(1, 0),
            body: vec![rogue],
            epilogue_len: 0,
            custom_functions: vec![],
            init_regs: vec![],
            init_scratch: vec![],
        });
    }
    let mut m = Machine::load(cfg, &binary).unwrap();
    match m.run_vcycles(2) {
        Err(
            MachineError::EpilogueOverflow { .. }
            | MachineError::LateMessage { .. }
            | MachineError::LinkCollision { .. },
        ) => {}
        other => panic!("expected a NoC/epilogue violation, got {other:?}"),
    }
}

/// Privileged instructions on ordinary cores are rejected at load time.
#[test]
fn privilege_violation_rejected() {
    let (mut binary, cfg) = compiled_counter();
    let intruder = Instruction::GlobalLoad {
        rd: Reg(1),
        rs_addr: [Reg(0), Reg(0), Reg(0)],
    };
    binary.cores.push(manticore::isa::CoreImage {
        core: manticore::isa::CoreId::new(1, 1),
        body: vec![intruder],
        epilogue_len: 0,
        custom_functions: vec![],
        init_regs: vec![],
        init_scratch: vec![],
    });
    assert!(matches!(
        Machine::load(cfg, &binary),
        Err(MachineError::Load(_))
    ));
}

/// Growing the Vcycle is harmless (more sleep); shrinking it below the
/// instruction footprint truncates execution and diverges — demonstrate
/// the grow case stays correct.
#[test]
fn longer_vcycle_still_correct() {
    let (mut binary, cfg) = compiled_counter();
    binary.vcycle_len += 64;
    let mut m = Machine::load(cfg, &binary).unwrap();
    m.run_vcycles(10).unwrap();
    // Counter still counts: find its home register via a fresh compile's
    // metadata (same compiler determinism, same placement).
    let mut b = NetlistBuilder::new("victim");
    let r = b.reg("c", 32, 0);
    let one = b.lit(1, 32);
    let next = b.add(r.q(), one);
    b.set_next(r, next);
    b.output("c", r.q());
    let n = b.finish_build().unwrap();
    let out = compile(
        &n,
        &CompileOptions {
            config: config(),
            ..Default::default()
        },
    )
    .unwrap();
    let loc = &out.metadata.reg_locations[0];
    let lo = m.read_reg(loc.words[0].0, loc.words[0].1);
    assert_eq!(lo, 10);
}

/// Corrupted byte streams are rejected by the bootloader.
#[test]
fn bootloader_rejects_corruption() {
    let (binary, cfg) = compiled_counter();
    let mut bytes = binary.to_bytes();
    bytes[3] ^= 0xff; // stomp the magic
    assert!(Machine::boot_from_bytes(cfg, &bytes).is_err());
}
