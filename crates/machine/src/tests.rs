//! Machine-model tests using hand-assembled programs.
//!
//! These tests play the role of the paper's hardware bring-up suite: each
//! exercises one architectural mechanism (pipeline hazards, NoC routing and
//! collisions, message epilogue, global stall, exceptions, custom
//! functions) with a program small enough to reason about by hand.

use manticore_isa::{
    AluOp, Binary, CoreId, CoreImage, ExceptionDescriptor, ExceptionId, ExceptionKind, Instruction,
    MachineConfig, Reg,
};

use crate::{Machine, MachineError};

/// A small test configuration: short pipeline so programs stay readable.
fn test_config(w: usize, h: usize) -> MachineConfig {
    MachineConfig {
        grid_width: w,
        grid_height: h,
        hazard_latency: 2,
        injection_latency: 2,
        hop_latency: 1,
        ..Default::default()
    }
}

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

#[test]
fn counter_increments_every_vcycle() {
    let mut binary = empty_binary(1, 1, 4);
    binary.cores.push(CoreImage {
        core: CoreId::new(0, 0),
        body: vec![Instruction::Alu {
            op: AluOp::Add,
            rd: r(1),
            rs1: r(1),
            rs2: r(2),
        }],
        epilogue_len: 0,
        custom_functions: vec![],
        init_regs: vec![(r(1), 0), (r(2), 1)],
        init_scratch: vec![],
    });
    let mut m = Machine::load(test_config(1, 1), &binary).unwrap();
    m.run_vcycles(5).unwrap();
    assert_eq!(m.read_reg(CoreId::new(0, 0), r(1)), 5);
    assert_eq!(m.counters().vcycles, 5);
    assert_eq!(m.counters().compute_cycles, 20);
    assert_eq!(m.counters().instructions, 5);
}

#[test]
fn strict_mode_catches_data_hazard() {
    // The second add reads r1 one cycle after it was written: with a
    // 2-cycle hazard latency the write is still in flight.
    let mut binary = empty_binary(1, 1, 6);
    binary.cores.push(CoreImage {
        core: CoreId::new(0, 0),
        body: vec![
            Instruction::Alu {
                op: AluOp::Add,
                rd: r(1),
                rs1: r(2),
                rs2: r(2),
            },
            Instruction::Alu {
                op: AluOp::Add,
                rd: r(3),
                rs1: r(1),
                rs2: r(2),
            },
        ],
        epilogue_len: 0,
        custom_functions: vec![],
        init_regs: vec![(r(2), 5)],
        init_scratch: vec![],
    });
    let mut m = Machine::load(test_config(1, 1), &binary).unwrap();
    match m.run_vcycles(1) {
        Err(MachineError::Hazard { reg, position, .. }) => {
            assert_eq!(reg, r(1));
            assert_eq!(position, 1);
        }
        other => panic!("expected hazard, got {other:?}"),
    }
}

#[test]
fn permissive_mode_reads_stale_value() {
    let mut binary = empty_binary(1, 1, 6);
    binary.cores.push(CoreImage {
        core: CoreId::new(0, 0),
        body: vec![
            Instruction::Alu {
                op: AluOp::Add,
                rd: r(1),
                rs1: r(2),
                rs2: r(2),
            },
            // reads the STALE r1 (= 0), so r3 = 0 + 5
            Instruction::Alu {
                op: AluOp::Add,
                rd: r(3),
                rs1: r(1),
                rs2: r(2),
            },
        ],
        epilogue_len: 0,
        custom_functions: vec![],
        init_regs: vec![(r(2), 5)],
        init_scratch: vec![],
    });
    let mut m = Machine::load(test_config(1, 1), &binary).unwrap();
    m.set_strict_hazards(false);
    m.run_vcycles(1).unwrap();
    assert_eq!(m.read_reg(CoreId::new(0, 0), r(3)), 5); // stale read
    assert_eq!(m.read_reg(CoreId::new(0, 0), r(1)), 10);
}

#[test]
fn hazard_respected_after_latency() {
    // Writer at position 0, reader at position 2 (= hazard latency): legal.
    let mut binary = empty_binary(1, 1, 6);
    binary.cores.push(CoreImage {
        core: CoreId::new(0, 0),
        body: vec![
            Instruction::Alu {
                op: AluOp::Add,
                rd: r(1),
                rs1: r(2),
                rs2: r(2),
            },
            Instruction::Nop,
            Instruction::Alu {
                op: AluOp::Add,
                rd: r(3),
                rs1: r(1),
                rs2: r(2),
            },
        ],
        epilogue_len: 0,
        custom_functions: vec![],
        init_regs: vec![(r(2), 5)],
        init_scratch: vec![],
    });
    let mut m = Machine::load(test_config(1, 1), &binary).unwrap();
    m.run_vcycles(1).unwrap();
    assert_eq!(m.read_reg(CoreId::new(0, 0), r(3)), 15);
}

#[test]
fn wide_add_carry_chain() {
    // 32-bit add: 0x0001_ffff + 0x0000_0001 = 0x0002_0000.
    let mut binary = empty_binary(1, 1, 8);
    binary.cores.push(CoreImage {
        core: CoreId::new(0, 0),
        body: vec![
            // low word: r10 = 0xffff + 0x0001 (sets carry)
            Instruction::Alu {
                op: AluOp::Add,
                rd: r(10),
                rs1: r(1),
                rs2: r(3),
            },
            Instruction::Nop,
            Instruction::Nop,
            // high word: r11 = 0x0001 + 0x0000 + carry(r10)
            Instruction::AddCarry {
                rd: r(11),
                rs1: r(2),
                rs2: r(4),
                rs_carry: r(10),
            },
        ],
        epilogue_len: 0,
        custom_functions: vec![],
        init_regs: vec![
            (r(1), 0xffff),
            (r(2), 0x0001),
            (r(3), 0x0001),
            (r(4), 0x0000),
        ],
        init_scratch: vec![],
    });
    let mut m = Machine::load(test_config(1, 1), &binary).unwrap();
    m.run_vcycles(1).unwrap();
    assert_eq!(m.read_reg(CoreId::new(0, 0), r(10)), 0x0000);
    assert_eq!(m.read_reg(CoreId::new(0, 0), r(11)), 0x0002);
}

#[test]
fn wide_sub_borrow_chain() {
    // 32-bit sub: 0x0002_0000 - 0x0000_0001 = 0x0001_ffff.
    let mut binary = empty_binary(1, 1, 8);
    binary.cores.push(CoreImage {
        core: CoreId::new(0, 0),
        body: vec![
            Instruction::Alu {
                op: AluOp::Sub,
                rd: r(10),
                rs1: r(1),
                rs2: r(3),
            },
            Instruction::Nop,
            Instruction::Nop,
            Instruction::SubBorrow {
                rd: r(11),
                rs1: r(2),
                rs2: r(4),
                rs_borrow: r(10),
            },
        ],
        epilogue_len: 0,
        custom_functions: vec![],
        init_regs: vec![
            (r(1), 0x0000),
            (r(2), 0x0002),
            (r(3), 0x0001),
            (r(4), 0x0000),
        ],
        init_scratch: vec![],
    });
    let mut m = Machine::load(test_config(1, 1), &binary).unwrap();
    m.run_vcycles(1).unwrap();
    assert_eq!(m.read_reg(CoreId::new(0, 0), r(10)), 0xffff);
    assert_eq!(m.read_reg(CoreId::new(0, 0), r(11)), 0x0001);
}

#[test]
fn send_delivers_to_remote_epilogue() {
    // Core (0,0) computes and sends to (1,0); the value lands in the
    // target's register via its epilogue SET.
    let mut binary = empty_binary(2, 1, 12);
    binary.cores.push(CoreImage {
        core: CoreId::new(0, 0),
        body: vec![
            Instruction::Alu {
                op: AluOp::Add,
                rd: r(1),
                rs1: r(1),
                rs2: r(2),
            },
            Instruction::Nop,
            Instruction::Send {
                target: CoreId::new(1, 0),
                rd_remote: r(5),
                rs: r(1),
            },
        ],
        epilogue_len: 0,
        custom_functions: vec![],
        init_regs: vec![(r(1), 0), (r(2), 1)],
        init_scratch: vec![],
    });
    binary.cores.push(CoreImage {
        core: CoreId::new(1, 0),
        // Body long enough that the epilogue slot executes after arrival
        // (send at pos 2, +2 injection +1 hop = arrives at pos 5).
        body: vec![Instruction::Nop; 6],
        epilogue_len: 1,
        custom_functions: vec![],
        init_regs: vec![],
        init_scratch: vec![],
    });
    let mut m = Machine::load(test_config(2, 1), &binary).unwrap();
    m.run_vcycles(3).unwrap();
    // After 3 Vcycles, (0,0) has sent 1, 2, 3; the last delivered value is 3.
    assert_eq!(m.read_reg(CoreId::new(1, 0), r(5)), 3);
    assert_eq!(m.counters().sends, 3);
    assert_eq!(m.counters().messages_delivered, 3);
}

/// A program whose message arrives after its epilogue slot has issued:
/// sender fires at position 2 (arrival 2+2+1 = 5), but the receiver's slot
/// 0 issues at position 0.
fn late_message_binary() -> Binary {
    let mut binary = empty_binary(2, 1, 12);
    binary.cores.push(CoreImage {
        core: CoreId::new(0, 0),
        body: vec![
            Instruction::Nop,
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
        body: vec![], // slot 0 executes at position 0, long before arrival
        epilogue_len: 1,
        custom_functions: vec![],
        init_regs: vec![],
        init_scratch: vec![],
    });
    binary
}

#[test]
fn late_message_detected() {
    // In permissive mode the empty slot issues as a NOP and the violation
    // surfaces when the message finally lands past its slot.
    let mut m = Machine::load(test_config(2, 1), &late_message_binary()).unwrap();
    m.set_strict_hazards(false);
    match m.run_vcycles(1) {
        Err(MachineError::LateMessage { core, slot }) => {
            assert_eq!(core, CoreId::new(1, 0));
            assert_eq!(slot, 0);
        }
        other => panic!("expected late message, got {other:?}"),
    }
}

#[test]
fn strict_mode_reports_empty_slot_at_issue() {
    // Strict mode catches the same bug earlier and deterministically: the
    // slot reaches instruction issue before its scheduled message.
    let mut m = Machine::load(test_config(2, 1), &late_message_binary()).unwrap();
    match m.run_vcycles(1) {
        Err(MachineError::MissingScheduledMessage {
            core,
            slot,
            position,
        }) => {
            assert_eq!(core, CoreId::new(1, 0));
            assert_eq!(slot, 0);
            assert_eq!(position, 0);
        }
        other => panic!("expected missing scheduled message, got {other:?}"),
    }
}

#[test]
fn link_collision_detected() {
    // (0,0) and (1,0) both route through the x-link out of (1,0) in the
    // same cycle.
    let mut binary = empty_binary(3, 1, 16);
    binary.cores.push(CoreImage {
        core: CoreId::new(0, 0),
        body: vec![Instruction::Send {
            target: CoreId::new(2, 0),
            rd_remote: r(5),
            rs: r(0),
        }],
        epilogue_len: 0,
        custom_functions: vec![],
        init_regs: vec![],
        init_scratch: vec![],
    });
    binary.cores.push(CoreImage {
        core: CoreId::new(1, 0),
        body: vec![
            Instruction::Nop,
            Instruction::Send {
                target: CoreId::new(2, 0),
                rd_remote: r(6),
                rs: r(0),
            },
        ],
        epilogue_len: 0,
        custom_functions: vec![],
        init_regs: vec![],
        init_scratch: vec![],
    });
    binary.cores.push(CoreImage {
        core: CoreId::new(2, 0),
        body: vec![Instruction::Nop; 10],
        epilogue_len: 2,
        custom_functions: vec![],
        init_regs: vec![],
        init_scratch: vec![],
    });
    let mut m = Machine::load(test_config(3, 1), &binary).unwrap();
    match m.run_vcycles(1) {
        Err(MachineError::LinkCollision { .. }) => {}
        other => panic!("expected collision, got {other:?}"),
    }
}

#[test]
fn missing_message_detected_at_wrap() {
    // Permissive mode: the starved SET slot silently NOPs and the
    // shortfall is caught by the Vcycle-wrap accounting.
    let mut binary = empty_binary(1, 1, 8);
    binary.cores.push(CoreImage {
        core: CoreId::new(0, 0),
        body: vec![Instruction::Nop],
        epilogue_len: 1, // nobody sends to us
        custom_functions: vec![],
        init_regs: vec![],
        init_scratch: vec![],
    });
    let mut m = Machine::load(test_config(1, 1), &binary).unwrap();
    m.set_strict_hazards(false);
    match m.run_vcycles(1) {
        Err(MachineError::MissingMessages { got, expected, .. }) => {
            assert_eq!((got, expected), (0, 1));
        }
        other => panic!("expected missing messages, got {other:?}"),
    }
}

#[test]
fn missing_message_detected_at_issue_in_strict_mode() {
    // Strict mode reports the starved slot the moment it issues (position
    // body_len + slot = 1), not at the wrap.
    let mut binary = empty_binary(1, 1, 8);
    binary.cores.push(CoreImage {
        core: CoreId::new(0, 0),
        body: vec![Instruction::Nop],
        epilogue_len: 1, // nobody sends to us
        custom_functions: vec![],
        init_regs: vec![],
        init_scratch: vec![],
    });
    let mut m = Machine::load(test_config(1, 1), &binary).unwrap();
    match m.run_vcycles(1) {
        Err(MachineError::MissingScheduledMessage {
            core,
            slot,
            position,
        }) => {
            assert_eq!(core, CoreId::new(0, 0));
            assert_eq!(slot, 0);
            assert_eq!(position, 1);
        }
        other => panic!("expected missing scheduled message, got {other:?}"),
    }
}

#[test]
fn local_memory_and_predicate() {
    let mut binary = empty_binary(1, 1, 16);
    binary.cores.push(CoreImage {
        core: CoreId::new(0, 0),
        body: vec![
            // predicate on (r1 = 1): store r2 at scratch[base=100 + r0]
            Instruction::Predicate { rs: r(1) },
            Instruction::LocalStore {
                rs_data: r(2),
                rs_addr: r(0),
                base: 100,
            },
            // predicate off (r0 = 0): store must NOT happen
            Instruction::Predicate { rs: r(0) },
            Instruction::LocalStore {
                rs_data: r(3),
                rs_addr: r(0),
                base: 100,
            },
            // load it back
            Instruction::LocalLoad {
                rd: r(4),
                rs_addr: r(0),
                base: 100,
            },
        ],
        epilogue_len: 0,
        custom_functions: vec![],
        init_regs: vec![(r(1), 1), (r(2), 0xaaaa), (r(3), 0xbbbb)],
        init_scratch: vec![],
    });
    let mut m = Machine::load(test_config(1, 1), &binary).unwrap();
    m.run_vcycles(1).unwrap();
    assert_eq!(m.read_scratch(CoreId::new(0, 0), 100), 0xaaaa);
    assert_eq!(m.read_reg(CoreId::new(0, 0), r(4)), 0xaaaa);
}

#[test]
fn global_memory_hits_and_misses() {
    let mut binary = empty_binary(1, 1, 8);
    binary.cores.push(CoreImage {
        core: CoreId::new(0, 0),
        body: vec![Instruction::GlobalLoad {
            rd: r(10),
            rs_addr: [r(1), r(0), r(0)],
        }],
        epilogue_len: 0,
        custom_functions: vec![],
        init_regs: vec![(r(1), 4)],
        init_scratch: vec![],
    });
    binary.init_dram.push((4, 0xd00d));
    let mut m = Machine::load(test_config(1, 1), &binary).unwrap();
    m.run_vcycles(3).unwrap();
    assert_eq!(m.read_reg(CoreId::new(0, 0), r(10)), 0xd00d);
    let stats = m.cache_stats();
    assert_eq!(stats.misses, 1); // first access fills the line
    assert_eq!(stats.hits, 2); // subsequent Vcycles hit
    assert!(m.counters().stall_cycles > 0);
}

#[test]
fn global_store_writes_back() {
    let cfg = test_config(1, 1);
    let mut binary = empty_binary(1, 1, 8);
    binary.cores.push(CoreImage {
        core: CoreId::new(0, 0),
        body: vec![
            Instruction::Predicate { rs: r(1) },
            Instruction::GlobalStore {
                rs_data: r(2),
                rs_addr: [r(3), r(0), r(0)],
            },
        ],
        epilogue_len: 0,
        custom_functions: vec![],
        init_regs: vec![(r(1), 1), (r(2), 0xfeed), (r(3), 1000)],
        init_scratch: vec![],
    });
    let mut m = Machine::load(cfg, &binary).unwrap();
    m.run_vcycles(1).unwrap();
    assert_eq!(m.read_global(1000), 0xfeed);
}

#[test]
fn privileged_on_wrong_core_rejected_at_load() {
    let mut binary = empty_binary(2, 1, 8);
    binary.cores.push(CoreImage {
        core: CoreId::new(1, 0),
        body: vec![Instruction::GlobalLoad {
            rd: r(1),
            rs_addr: [r(0), r(0), r(0)],
        }],
        epilogue_len: 0,
        custom_functions: vec![],
        init_regs: vec![],
        init_scratch: vec![],
    });
    assert!(matches!(
        Machine::load(test_config(2, 1), &binary),
        Err(MachineError::Load(_))
    ));
}

#[test]
fn custom_function_lut() {
    // Truth table for out = a & b: bits set where sel has bits 0 and 1,
    // replicated across all 16 lanes.
    let table = [0x8888u16; 16]; // indices 3, 7, 11, 15
    let mut binary = empty_binary(1, 1, 8);
    binary.cores.push(CoreImage {
        core: CoreId::new(0, 0),
        body: vec![Instruction::Custom {
            rd: r(3),
            func: 0,
            rs: [r(1), r(2), r(0), r(0)],
        }],
        epilogue_len: 0,
        custom_functions: vec![table],
        init_regs: vec![(r(1), 0xff0f), (r(2), 0x0ff0)],
        init_scratch: vec![],
    });
    let mut m = Machine::load(test_config(1, 1), &binary).unwrap();
    m.run_vcycles(1).unwrap();
    assert_eq!(m.read_reg(CoreId::new(0, 0), r(3)), 0x0f00);
}

#[test]
fn display_exception_renders() {
    let mut binary = empty_binary(1, 1, 8);
    binary.cores.push(CoreImage {
        core: CoreId::new(0, 0),
        body: vec![Instruction::Expect {
            rs1: r(1),
            rs2: r(0),
            eid: 0,
        }],
        epilogue_len: 0,
        custom_functions: vec![],
        init_regs: vec![(r(1), 1), (r(2), 0xbeef), (r(3), 0xdead)],
        init_scratch: vec![],
    });
    binary.exceptions.push(ExceptionDescriptor {
        id: ExceptionId(0),
        kind: ExceptionKind::Display {
            format: "value = {}".into(),
            args: vec![(vec![r(2), r(3)], 32)],
        },
    });
    let mut m = Machine::load(test_config(1, 1), &binary).unwrap();
    let out = m.run_vcycles(2).unwrap();
    assert_eq!(out.displays, vec!["value = deadbeef", "value = deadbeef"]);
    assert_eq!(m.counters().exceptions, 2);
    assert!(m.counters().stall_cycles >= 400);
}

#[test]
fn finish_exception_stops_run() {
    let mut binary = empty_binary(1, 1, 8);
    binary.cores.push(CoreImage {
        core: CoreId::new(0, 0),
        body: vec![
            // counter
            Instruction::Alu {
                op: AluOp::Add,
                rd: r(1),
                rs1: r(1),
                rs2: r(2),
            },
            Instruction::Nop,
            Instruction::Nop,
            // done = (r1 == 3)
            Instruction::Alu {
                op: AluOp::Seq,
                rd: r(4),
                rs1: r(1),
                rs2: r(3),
            },
            Instruction::Nop,
            Instruction::Nop,
            Instruction::Expect {
                rs1: r(4),
                rs2: r(0),
                eid: 0,
            },
        ],
        epilogue_len: 0,
        custom_functions: vec![],
        init_regs: vec![(r(1), 0), (r(2), 1), (r(3), 3)],
        init_scratch: vec![],
    });
    binary.exceptions.push(ExceptionDescriptor {
        id: ExceptionId(0),
        kind: ExceptionKind::Finish,
    });
    let mut m = Machine::load(test_config(1, 1), &binary).unwrap();
    let out = m.run_vcycles(100).unwrap();
    assert!(out.finished);
    assert_eq!(out.vcycles_run, 3);
}

#[test]
fn assert_fail_aborts() {
    let mut binary = empty_binary(1, 1, 8);
    binary.cores.push(CoreImage {
        core: CoreId::new(0, 0),
        body: vec![Instruction::Expect {
            rs1: r(1),
            rs2: r(2),
            eid: 7,
        }],
        epilogue_len: 0,
        custom_functions: vec![],
        init_regs: vec![(r(1), 1), (r(2), 2)],
        init_scratch: vec![],
    });
    binary.exceptions.push(ExceptionDescriptor {
        id: ExceptionId(7),
        kind: ExceptionKind::AssertFail {
            message: "values diverged".into(),
        },
    });
    let mut m = Machine::load(test_config(1, 1), &binary).unwrap();
    match m.run_vcycles(1) {
        Err(MachineError::AssertFailed { message, vcycle }) => {
            assert_eq!(message, "values diverged");
            assert_eq!(vcycle, 0);
        }
        other => panic!("expected assert failure, got {other:?}"),
    }
}

#[test]
fn boot_from_serialized_bytes() {
    let mut binary = empty_binary(1, 1, 4);
    binary.cores.push(CoreImage {
        core: CoreId::new(0, 0),
        body: vec![Instruction::Alu {
            op: AluOp::Add,
            rd: r(1),
            rs1: r(1),
            rs2: r(2),
        }],
        epilogue_len: 0,
        custom_functions: vec![],
        init_regs: vec![(r(1), 0), (r(2), 2)],
        init_scratch: vec![],
    });
    let bytes = binary.to_bytes();
    let mut m = Machine::boot_from_bytes(test_config(1, 1), &bytes).unwrap();
    m.run_vcycles(4).unwrap();
    assert_eq!(m.read_reg(CoreId::new(0, 0), r(1)), 8);
}

#[test]
fn enabling_strict_hazards_disarms_replay() {
    let mut binary = empty_binary(1, 1, 4);
    binary.cores.push(CoreImage {
        core: CoreId::new(0, 0),
        body: vec![Instruction::Alu {
            op: AluOp::Add,
            rd: r(1),
            rs1: r(1),
            rs2: r(2),
        }],
        epilogue_len: 0,
        custom_functions: vec![],
        init_regs: vec![(r(2), 1)],
        init_scratch: vec![],
    });
    let mut m = Machine::load(test_config(1, 1), &binary).unwrap();
    assert!(m.replay_armed(), "micro-ops frozen at load");
    // Permissive runs execute on the interpreter: replay disarms.
    m.set_strict_hazards(false);
    assert!(!m.replay_armed());
    // Re-enabling strictness arms checks the (permissive) validation
    // Vcycle never proved: replay stays disarmed for good.
    m.set_strict_hazards(true);
    assert!(!m.replay_armed());
    m.set_replay(true);
    assert!(!m.replay_armed());
    // Execution still works, just on the full interpreter.
    m.run_vcycles(3).unwrap();
    assert_eq!(m.read_reg(CoreId::new(0, 0), r(1)), 3);
}

#[test]
fn oversized_grid_rejected_at_load() {
    // CoreId coordinates are 8-bit: a 257-wide grid would silently wrap
    // `core_id_of` and alias core (256, y) with core (0, y).
    let cfg = MachineConfig {
        grid_width: 257,
        grid_height: 1,
        ..Default::default()
    };
    let binary = empty_binary(1, 1, 4);
    match Machine::load(cfg, &binary) {
        Err(MachineError::Load(msg)) => {
            assert!(msg.contains("256x256"), "unexpected message: {msg}")
        }
        other => panic!("expected load rejection, got {other:?}"),
    }
    // 256 exactly still fits (coordinates 0..=255).
    let cfg = MachineConfig {
        grid_width: 256,
        grid_height: 1,
        scratch_words: 1,
        regfile_size: 1,
        ..Default::default()
    };
    assert!(Machine::load(cfg, &empty_binary(1, 1, 4)).is_ok());
}

#[test]
fn send_outside_grid_rejected_at_load() {
    // A Send whose target lies outside the configured grid would loop the
    // dimension-ordered router forever; the bootloader rejects it.
    let mut binary = empty_binary(2, 1, 8);
    binary.cores.push(CoreImage {
        core: CoreId::new(0, 0),
        body: vec![Instruction::Send {
            target: CoreId::new(5, 0),
            rd_remote: r(1),
            rs: r(0),
        }],
        epilogue_len: 0,
        custom_functions: vec![],
        init_regs: vec![],
        init_scratch: vec![],
    });
    assert!(matches!(
        Machine::load(test_config(2, 1), &binary),
        Err(MachineError::Load(_))
    ));
}

#[test]
fn imem_overflow_rejected() {
    let cfg = test_config(1, 1);
    let mut binary = empty_binary(1, 1, 8);
    binary.cores.push(CoreImage {
        core: CoreId::new(0, 0),
        body: vec![Instruction::Nop; cfg.imem_capacity + 1],
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

#[test]
fn mul_and_mulh_compose() {
    // 0x1234 * 0x5678 = 0x06260060, split across Mul/Mulh.
    let mut binary = empty_binary(1, 1, 8);
    binary.cores.push(CoreImage {
        core: CoreId::new(0, 0),
        body: vec![
            Instruction::Alu {
                op: AluOp::Mul,
                rd: r(3),
                rs1: r(1),
                rs2: r(2),
            },
            Instruction::Alu {
                op: AluOp::Mulh,
                rd: r(4),
                rs1: r(1),
                rs2: r(2),
            },
        ],
        epilogue_len: 0,
        custom_functions: vec![],
        init_regs: vec![(r(1), 0x1234), (r(2), 0x5678)],
        init_scratch: vec![],
    });
    let mut m = Machine::load(test_config(1, 1), &binary).unwrap();
    m.run_vcycles(1).unwrap();
    assert_eq!(m.read_reg(CoreId::new(0, 0), r(3)), 0x0060);
    assert_eq!(m.read_reg(CoreId::new(0, 0), r(4)), 0x0626);
}

mod replay_engines {
    //! Unit tests for the validate-once / replay-many engine: the
    //! pipeline write ring, the flat micro-op lowering, and the static
    //! cross-Vcycle-boundary hazard analysis that decides when the
    //! micro-op engine may run at all in strict mode.

    use super::*;
    use crate::uops::{Alu3, UOp};
    use crate::{CompiledProgram, GangMachine, RunOutcome};
    use std::sync::Arc;

    /// A counter whose increment issues at the *last* body position, so
    /// its write is still in the pipeline ring at every Vcycle boundary.
    fn tail_write_binary() -> Binary {
        let mut binary = empty_binary(1, 1, 4);
        binary.cores.push(CoreImage {
            core: CoreId::new(0, 0),
            // The increment issues at position 3 and commits at 4k+5 —
            // position 1 of the next Vcycle — so it is always pending at
            // the Vcycle boundary. The only read (position 2, the r3
            // snapshot) sits outside every commit window, keeping the
            // program hazard-free on all engines.
            body: vec![
                Instruction::Nop,
                Instruction::Nop,
                Instruction::Alu {
                    op: AluOp::Add,
                    rd: r(3),
                    rs1: r(1),
                    rs2: r(0),
                },
                Instruction::Alu {
                    op: AluOp::Add,
                    rd: r(1),
                    rs1: r(1),
                    rs2: r(2),
                },
            ],
            epilogue_len: 0,
            custom_functions: vec![],
            init_regs: vec![(r(1), 0), (r(2), 1)],
            init_scratch: vec![],
        });
        binary
    }

    #[test]
    fn host_reads_see_flushed_tail_writes_on_every_engine() {
        // `read_reg` must return the in-flight (flushed) value at the
        // Vcycle boundary, whether the write sits in the ring (the strict
        // and the permissive interpreter) or was committed directly
        // (micro-ops).
        for (replay, strict) in [(false, true), (true, false), (true, true)] {
            let mut m = Machine::load(test_config(1, 1), &tail_write_binary()).unwrap();
            m.set_strict_hazards(strict);
            m.set_replay(replay);
            m.run_vcycles(5).unwrap();
            let what = format!("replay {replay} strict {strict}");
            assert_eq!(m.read_reg(CoreId::new(0, 0), r(1)), 5, "{what}");
            // r3 snapshots r1 before the increment of the same Vcycle:
            // at Vcycle 4's position 2, four increments have committed.
            assert_eq!(m.read_reg(CoreId::new(0, 0), r(3)), 4, "{what}");
        }
    }

    #[test]
    fn the_flat_program_folds_alu_functions_into_absolute_core_major_ops() {
        // Core (0,0) computes and sends r1 to core (1,0)'s r6, which its
        // next Vcycle subtracts r7 from.
        let alu = |op, rd, rs1, rs2| Instruction::Alu {
            op,
            rd: r(rd),
            rs1: r(rs1),
            rs2: r(rs2),
        };
        let mut binary = empty_binary(2, 1, 8);
        binary.cores.push(CoreImage {
            core: CoreId::new(0, 0),
            body: vec![
                alu(AluOp::Add, 1, 2, 2),
                alu(AluOp::Xor, 3, 2, 2),
                Instruction::Send {
                    rs: r(1),
                    target: CoreId::new(1, 0),
                    rd_remote: r(6),
                },
                Instruction::Nop,
                alu(AluOp::Or, 4, 2, 2),
            ],
            epilogue_len: 0,
            custom_functions: vec![],
            init_regs: vec![(r(2), 5)],
            init_scratch: vec![],
        });
        binary.cores.push(CoreImage {
            core: CoreId::new(1, 0),
            body: vec![
                Instruction::Nop,
                alu(AluOp::Sub, 5, 6, 7),
                Instruction::Nop,
                Instruction::Nop,
                Instruction::Nop,
                Instruction::Nop,
            ],
            epilogue_len: 1,
            custom_functions: vec![],
            init_regs: vec![(r(7), 1)],
            init_scratch: vec![],
        });
        let program = CompiledProgram::compile_shared(test_config(2, 1), &binary).unwrap();
        let up = program.micro_prog.as_ref().expect("replayable");
        let rf = program.config.regfile_size as u32;
        // One op per non-NOP instruction, core-major, the ALU function in
        // the opcode, operands absolute in the machine's register file.
        assert_eq!(program.micro_op_stats(), Some(5));
        assert!(matches!(
            up.ops[..4],
            [
                UOp::Add(Alu3 {
                    rd: 1,
                    rs1: 2,
                    rs2: 2
                }),
                UOp::Xor(Alu3 { rd: 3, .. }),
                UOp::Send { rs: 1 },
                UOp::Or(Alu3 { rd: 4, .. }),
            ]
        ));
        match up.ops[4] {
            UOp::Sub(o) => assert_eq!((o.rd, o.rs1, o.rs2), (rf + 5, rf + 6, rf + 7)),
            other => panic!("core (1,0)'s op lowered to {other:?}"),
        }
        let epi: Vec<(u32, u32)> = up.epi_prog.iter().map(|e| (e.core, e.rd)).collect();
        assert_eq!(epi, vec![(1, rf + 6)]);
        // The frozen per-Vcycle deltas: five ops plus one epilogue slot.
        assert_eq!((up.instructions, up.sends), (6, 1));
        let spans: Vec<_> = up
            .spans
            .iter()
            .map(|s| (s.core, s.ops.clone(), s.executed))
            .collect();
        assert_eq!(spans, vec![(0, 0..4, 4), (1, 4..5, 2)]);

        // And the flat walk computes what the interpreter does.
        let mut interp = Machine::from_program(Arc::clone(&program));
        interp.set_replay(false);
        interp.run_vcycles(3).unwrap();
        let mut m = Machine::from_program(program);
        m.run_vcycles(3).unwrap();
        assert_eq!(m.counters(), interp.counters());
        assert_eq!(m.executed_per_core(), interp.executed_per_core());
        assert_eq!(m.state_fingerprint(), interp.state_fingerprint());
        let read = |x, reg| m.read_reg(CoreId::new(x, 0), r(reg));
        assert_eq!(
            [read(0, 1), read(0, 3), read(0, 4), read(1, 5)],
            [10, 0, 5, 9]
        );
    }

    /// A write at the last position whose commit window reaches a read
    /// early in the next Vcycle: a hazard that only exists *across* the
    /// Vcycle boundary, invisible to the validation Vcycle.
    fn cross_boundary_hazard_binary() -> Binary {
        let mut binary = empty_binary(1, 1, 3);
        binary.cores.push(CoreImage {
            core: CoreId::new(0, 0),
            body: vec![
                // Position 0: reads r1. In Vcycle 0 nothing is pending;
                // from Vcycle 1 on, the position-2 write (commits at
                // 3k+2+2, i.e. position 1 of the next Vcycle) is still
                // in flight here.
                Instruction::Alu {
                    op: AluOp::Add,
                    rd: r(3),
                    rs1: r(1),
                    rs2: r(0),
                },
                Instruction::Nop,
                Instruction::Alu {
                    op: AluOp::Add,
                    rd: r(1),
                    rs1: r(1),
                    rs2: r(2),
                },
            ],
            epilogue_len: 0,
            custom_functions: vec![],
            init_regs: vec![(r(1), 0), (r(2), 1)],
            init_scratch: vec![],
        });
        binary
    }

    #[test]
    fn cross_boundary_hazard_reported_identically_by_every_engine() {
        // Strict mode: the interpreter reports the hazard at Vcycle 1
        // position 0. The micro-op engine cannot run hazard checks, so the
        // static cross-boundary window must keep the default machine, and
        // every lane of a gang, on the interpreter — reporting the
        // identical error, counters included.
        let check = |res: Result<RunOutcome, MachineError>, what: &str| match res {
            Err(MachineError::Hazard { position, reg, .. }) => {
                assert_eq!((position, reg), (0, r(1)), "{what}");
            }
            other => panic!("{what}: expected hazard, got {other:?}"),
        };
        let program =
            CompiledProgram::compile_shared(test_config(1, 1), &cross_boundary_hazard_binary())
                .unwrap();
        let mut interp = Machine::from_program(Arc::clone(&program));
        interp.set_replay(false);
        check(interp.run_vcycles(5), "interpreter");
        // The interpreter's validation Vcycle proved the schedule, so the
        // default machine and the gang would start on micro-ops if the
        // hazard did not rule them out.
        assert!(program.schedule_proven());
        let mut m = Machine::from_program(Arc::clone(&program));
        assert!(!m.replay_armed());
        check(m.run_vcycles(5), "default machine");
        assert_eq!(m.counters(), interp.counters(), "default machine");
        let mut gang = GangMachine::from_program(Arc::clone(&program), 3);
        assert!(!gang.replay_armed());
        for (lane, res) in gang.run_vcycles(5).into_iter().enumerate() {
            check(res, &format!("gang lane {lane}"));
            assert_eq!(gang.counters(lane), interp.counters(), "gang lane {lane}");
        }
    }

    #[test]
    fn micro_op_stats_are_withheld_while_a_static_hazard_disarms_the_stream() {
        // Strict mode over a static cross-Vcycle hazard runs every Vcycle
        // on the interpreter, so the stream is not usable by this run and
        // its statistics must not be reported; permissive runs stay on the
        // interpreter too, so they stay withheld.
        let mut m = Machine::load(test_config(1, 1), &cross_boundary_hazard_binary()).unwrap();
        assert!(m.program().micro_op_stats().is_some(), "the stream exists");
        assert!(!m.replay_armed());
        assert_eq!(m.micro_op_stats(), None);
        m.set_strict_hazards(false);
        assert!(!m.replay_armed());
        assert_eq!(m.micro_op_stats(), None);
        m.set_strict_hazards(true);
        assert_eq!(m.micro_op_stats(), None);
    }

    #[test]
    fn cross_boundary_stale_reads_agree_in_permissive_mode() {
        // Permissive mode: the same program runs, reading stale values
        // across the boundary. Replay stays enabled but is not armed, so
        // the default machine runs the interpreter and must match a
        // replay-off run bit-for-bit.
        let mut reference =
            Machine::load(test_config(1, 1), &cross_boundary_hazard_binary()).unwrap();
        reference.set_strict_hazards(false);
        reference.set_replay(false);
        reference.run_vcycles(6).unwrap();
        let mut m = Machine::load(test_config(1, 1), &cross_boundary_hazard_binary()).unwrap();
        m.set_strict_hazards(false);
        assert!(m.replay_enabled());
        assert!(!m.replay_armed(), "permissive runs stay on the interpreter");
        m.run_vcycles(6).unwrap();
        for reg in [r(1), r(3)] {
            assert_eq!(
                reference.read_reg(CoreId::new(0, 0), reg),
                m.read_reg(CoreId::new(0, 0), reg),
                "{reg}"
            );
        }
        assert_eq!(reference.counters(), m.counters());
    }
}

mod noc_unit {
    //! Direct unit tests for the NoC message queue: `take_due` must yield
    //! arrival order, stable in injection order for equal arrival times —
    //! the property the epilogue slot assignment (and with it every
    //! delivered value) depends on.

    use manticore_isa::{CoreId, MachineConfig};

    use super::r;
    use crate::noc::Noc;

    fn noc() -> Noc {
        Noc::new(&MachineConfig {
            grid_width: 4,
            grid_height: 4,
            injection_latency: 0,
            hop_latency: 0,
            ..Default::default()
        })
    }

    #[test]
    fn equal_arrivals_keep_injection_order() {
        // Zero-latency config: every message injected at `now` arrives at
        // `now`, so ordering falls back entirely to injection order.
        let mut n = noc();
        let target = CoreId::new(1, 0);
        for i in 0..5u16 {
            n.send(CoreId::new(0, 0), target, r(i), i, 7, 0, false)
                .unwrap();
        }
        let due = n.take_due(7);
        let values: Vec<u16> = due.iter().map(|m| m.value).collect();
        assert_eq!(values, vec![0, 1, 2, 3, 4]);
        assert!(n.in_flight.is_empty());
    }

    #[test]
    fn arrival_order_sorts_before_injection_order() {
        // Injected out of arrival order (different hop counts): the due
        // list is sorted by arrival, injection order breaking ties.
        let mut n = Noc::new(&MachineConfig {
            grid_width: 8,
            grid_height: 1,
            injection_latency: 1,
            hop_latency: 2,
            ..Default::default()
        });
        // hops = distance: far target first (arrives later).
        n.send(CoreId::new(0, 0), CoreId::new(3, 0), r(1), 30, 0, 0, false)
            .unwrap(); // arrive 0+1+3*2 = 7
        n.send(CoreId::new(0, 0), CoreId::new(1, 0), r(2), 10, 0, 0, false)
            .unwrap(); // arrive 0+1+1*2 = 3
        n.send(CoreId::new(2, 0), CoreId::new(3, 0), r(3), 11, 0, 0, false)
            .unwrap(); // arrive 0+1+1*2 = 3, injected after
        assert!(n.take_due(2).is_empty());
        let due = n.take_due(100);
        let values: Vec<u16> = due.iter().map(|m| m.value).collect();
        assert_eq!(values, vec![10, 11, 30]);
    }

    #[test]
    fn not_due_messages_stay_queued_in_order() {
        let mut n = noc();
        let t = CoreId::new(1, 1);
        n.send(CoreId::new(0, 0), t, r(0), 1, 5, 0, false).unwrap();
        n.send(CoreId::new(0, 0), t, r(0), 2, 9, 0, false).unwrap();
        n.send(CoreId::new(0, 0), t, r(0), 3, 5, 0, false).unwrap();
        let due = n.take_due(5);
        assert_eq!(due.iter().map(|m| m.value).collect::<Vec<_>>(), vec![1, 3]);
        // The survivor keeps its place for the next scan.
        assert_eq!(n.in_flight.len(), 1);
        assert_eq!(n.take_due(9)[0].value, 2);
    }
}

mod cache_unit {
    //! Direct unit tests for the cache + DRAM model (the global-stall
    //! timing source of Fig. 8).

    use manticore_isa::CacheConfig;

    use crate::Cache;

    fn small_cache() -> Cache {
        Cache::new(CacheConfig {
            capacity_words: 64,
            line_words: 8,
            hit_stall: 2,
            miss_stall: 10,
            writeback_stall: 5,
        })
    }

    #[test]
    fn cold_miss_then_hits_within_line() {
        let mut c = small_cache();
        c.write_dram(3, 77);
        let (v, stall) = c.load(3);
        assert_eq!(v, 77);
        assert_eq!(stall, 12); // hit_stall + miss_stall
                               // Same line: hits.
        for addr in 0..8 {
            let (_, stall) = c.load(addr);
            assert_eq!(stall, 2, "address {addr} should hit");
        }
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().hits, 8);
    }

    #[test]
    fn conflicting_lines_evict() {
        let mut c = small_cache(); // 8 lines of 8 words
        c.write_dram(0, 11);
        c.write_dram(64, 22); // maps to the same line (64 words capacity)
        let (v1, _) = c.load(0);
        let (v2, _) = c.load(64);
        let (v3, _) = c.load(0); // evicted, miss again
        assert_eq!((v1, v2, v3), (11, 22, 11));
        assert_eq!(c.stats().misses, 3);
        assert_eq!(c.stats().writebacks, 0); // clean evictions
    }

    #[test]
    fn dirty_eviction_writes_back() {
        let mut c = small_cache();
        let s1 = c.store(0, 99); // miss + fill + dirty
        assert_eq!(s1, 12);
        let s2 = c.load(64).1; // evicts dirty line 0: writeback + fill
        assert_eq!(s2, 17); // hit(2) + miss(10) + writeback(5)
        assert_eq!(c.stats().writebacks, 1);
        // The value survived in DRAM.
        let (v, _) = c.load(0);
        assert_eq!(v, 99);
    }

    #[test]
    fn peek_sees_dirty_cached_data() {
        let mut c = small_cache();
        c.store(5, 42);
        assert_eq!(c.peek(5), 42); // cached, not yet in DRAM
        assert_eq!(c.peek(64 + 5), 0); // different line, untouched
    }

    #[test]
    fn hit_rate_computation() {
        let mut c = small_cache();
        c.load(0); // miss
        c.load(1); // hit
        c.load(2); // hit
        c.load(3); // hit
        assert!((c.stats().hit_rate() - 0.75).abs() < 1e-9);
    }
}

mod carry_borrow_boundary {
    //! Exhaustive 16-bit boundary vectors for the `AddCarry`/`SubBorrow`
    //! carry/borrow conventions: the wide-arithmetic correctness of every
    //! compiled design rests on these two instructions agreeing with the
    //! compiler's lowering. Convention under test:
    //!
    //! - `AddCarry`: `rd = (a + b + cin) mod 2^16`, carry-out set iff the
    //!   true sum exceeds `0xffff`;
    //! - `SubBorrow`: `rd = (a - b - (1 - cin)) mod 2^16`, carry-out set
    //!   iff no borrow occurred (`a - b - (1 - cin) >= 0`) — carry means
    //!   "no borrow", the classic subtract-with-carry convention.

    use super::*;

    /// The interesting 16-bit values: zero/one neighborhoods, the signed
    /// boundary, and the wrap-around neighborhood.
    const BOUNDARY: [u16; 9] = [
        0x0000, 0x0001, 0x0002, 0x7ffe, 0x7fff, 0x8000, 0x8001, 0xfffe, 0xffff,
    ];

    /// Runs one carry-chain probe program and returns `(result, carry_out)`.
    ///
    /// Position 0 manufactures the carry-in flag (`0xffff + 0xffff` sets
    /// carry, `0 + 0` clears it); the probed instruction executes at
    /// position 2 (after the 2-cycle hazard latency); a second chained
    /// instruction at position 4 exposes the probe's carry-out as a value.
    fn probe(op: fn(Reg, Reg, Reg, Reg) -> Instruction, a: u16, b: u16, cin: bool) -> (u16, u16) {
        let flag_src = if cin { 0xffff } else { 0x0000 };
        let mut binary = empty_binary(1, 1, 8);
        binary.cores.push(CoreImage {
            core: CoreId::new(0, 0),
            body: vec![
                // r20 = flag_src + flag_src: carry set iff flag_src != 0.
                Instruction::Alu {
                    op: AluOp::Add,
                    rd: r(20),
                    rs1: r(5),
                    rs2: r(5),
                },
                Instruction::Nop,
                op(r(10), r(1), r(2), r(20)),
                Instruction::Nop,
                // Chain a second op off r10's carry with zero operands, so
                // its value readout *is* the carry-out (AddCarry: 0+0+c;
                // SubBorrow: 0-0-(1-c) = 0 if c else 0xffff).
                op(r(11), r(0), r(0), r(10)),
            ],
            epilogue_len: 0,
            custom_functions: vec![],
            init_regs: vec![(r(1), a), (r(2), b), (r(5), flag_src)],
            init_scratch: vec![],
        });
        let mut m = Machine::load(test_config(1, 1), &binary).unwrap();
        m.run_vcycles(1).unwrap();
        (
            m.read_reg(CoreId::new(0, 0), r(10)),
            m.read_reg(CoreId::new(0, 0), r(11)),
        )
    }

    #[test]
    fn add_carry_boundary_vectors_exhaustive() {
        let mk = |rd, rs1, rs2, rs_carry| Instruction::AddCarry {
            rd,
            rs1,
            rs2,
            rs_carry,
        };
        for a in BOUNDARY {
            for b in BOUNDARY {
                for cin in [false, true] {
                    let (value, carry_probe) = probe(mk, a, b, cin);
                    let sum = a as u32 + b as u32 + cin as u32;
                    assert_eq!(
                        value, sum as u16,
                        "AddCarry value: {a:#06x} + {b:#06x} + {}",
                        cin as u8
                    );
                    let carry_out = sum > 0xffff;
                    // Probe chain: 0 + 0 + carry_out.
                    assert_eq!(
                        carry_probe, carry_out as u16,
                        "AddCarry carry-out: {a:#06x} + {b:#06x} + {}",
                        cin as u8
                    );
                }
            }
        }
    }

    #[test]
    fn sub_borrow_boundary_vectors_exhaustive() {
        let mk = |rd, rs1, rs2, rs_borrow| Instruction::SubBorrow {
            rd,
            rs1,
            rs2,
            rs_borrow,
        };
        for a in BOUNDARY {
            for b in BOUNDARY {
                for cin in [false, true] {
                    let (value, borrow_probe) = probe(mk, a, b, cin);
                    let diff = a as i32 - b as i32 - (1 - cin as i32);
                    assert_eq!(
                        value, diff as u16,
                        "SubBorrow value: {a:#06x} - {b:#06x}, cin {}",
                        cin as u8
                    );
                    let no_borrow = diff >= 0;
                    // Probe chain: 0 - 0 - (1 - carry_out).
                    let expected_probe = if no_borrow { 0x0000 } else { 0xffff };
                    assert_eq!(
                        borrow_probe, expected_probe,
                        "SubBorrow borrow-out: {a:#06x} - {b:#06x}, cin {}",
                        cin as u8
                    );
                }
            }
        }
    }
}

mod failed_run_displays {
    //! A failed multi-Vcycle run must not lose the `$display` output that
    //! fired before the failure — on the interpreter or the replay path.

    use super::*;

    fn display_then_assert_binary() -> Binary {
        let mut binary = empty_binary(1, 1, 8);
        binary.cores.push(CoreImage {
            core: CoreId::new(0, 0),
            body: vec![
                Instruction::Alu {
                    op: AluOp::Add,
                    rd: r(1),
                    rs1: r(1),
                    rs2: r(2),
                },
                Instruction::Nop,
                Instruction::Nop,
                // display every Vcycle (r1 != 0 after the first increment)
                Instruction::Expect {
                    rs1: r(1),
                    rs2: r(0),
                    eid: 0,
                },
                Instruction::Alu {
                    op: AluOp::Seq,
                    rd: r(4),
                    rs1: r(1),
                    rs2: r(3),
                },
                Instruction::Nop,
                Instruction::Nop,
                // assert-fail once r1 == 3
                Instruction::Expect {
                    rs1: r(4),
                    rs2: r(0),
                    eid: 1,
                },
            ],
            epilogue_len: 0,
            custom_functions: vec![],
            init_regs: vec![(r(1), 0), (r(2), 1), (r(3), 3)],
            init_scratch: vec![],
        });
        binary.exceptions.push(ExceptionDescriptor {
            id: ExceptionId(0),
            kind: ExceptionKind::Display {
                format: "n = {}".into(),
                args: vec![(vec![r(1)], 16)],
            },
        });
        binary.exceptions.push(ExceptionDescriptor {
            id: ExceptionId(1),
            kind: ExceptionKind::AssertFail {
                message: "boom".into(),
            },
        });
        binary
    }

    #[test]
    fn prefailure_displays_survive_on_both_engines() {
        let binary = display_then_assert_binary();
        for replay in [false, true] {
            let mode = if replay { "replay" } else { "interp" };
            let mut m = Machine::load(test_config(1, 1), &binary).unwrap();
            m.set_replay(replay);
            match m.run_vcycles(10) {
                Err(MachineError::AssertFailed { message, vcycle }) => {
                    assert_eq!(message, "boom", "{mode}");
                    assert_eq!(vcycle, 2, "{mode}");
                }
                other => panic!("{mode}: expected assert failure, got {other:?}"),
            }
            assert_eq!(
                m.drain_pending_displays(),
                vec!["n = 1", "n = 2", "n = 3"],
                "{mode}: pre-failure displays"
            );
            // Drained means drained: a second call yields nothing.
            assert!(m.drain_pending_displays().is_empty(), "{mode}");
        }
    }
}

/// Gang-engine bring-up: the lane-batched lockstep engine against solo
/// machines on hand-assembled programs (the workload-level equivalence
/// sweep lives in `tests/gang_equivalence.rs`).
mod gang_bringup {
    use super::*;
    use crate::{CompiledProgram, GangMachine};
    use std::sync::Arc;

    /// `r1 += r2` once per Vcycle; per-lane pokes of `r2` give every lane
    /// a distinct increment.
    fn counter_program() -> Arc<CompiledProgram> {
        let mut binary = empty_binary(1, 1, 4);
        binary.cores.push(CoreImage {
            core: CoreId::new(0, 0),
            body: vec![Instruction::Alu {
                op: AluOp::Add,
                rd: r(1),
                rs1: r(1),
                rs2: r(2),
            }],
            epilogue_len: 0,
            custom_functions: vec![],
            init_regs: vec![(r(1), 0), (r(2), 1)],
            init_scratch: vec![],
        });
        CompiledProgram::compile_shared(test_config(1, 1), &binary).unwrap()
    }

    #[test]
    fn gang_lanes_match_solo_machines_on_every_engine_knob() {
        let program = counter_program();
        let c00 = CoreId::new(0, 0);
        for (replay, strict) in [
            (true, true),
            (true, false),
            (false, true), // replay disabled: pure solo-fallback gang
        ] {
            let lanes = 3;
            let mut gang = GangMachine::from_program(Arc::clone(&program), lanes);
            gang.set_strict_hazards(strict);
            gang.set_replay(replay);
            let mut solos: Vec<Machine> = (0..lanes)
                .map(|lane| {
                    let mut m = Machine::from_program(Arc::clone(&program));
                    m.set_strict_hazards(strict);
                    m.set_replay(replay);
                    m.poke_reg(c00, r(2), (lane + 1) as u16);
                    m
                })
                .collect();
            for (lane, _) in solos.iter().enumerate() {
                gang.poke_reg(lane, c00, r(2), (lane + 1) as u16);
            }
            let results = gang.run_vcycles(10);
            for (lane, solo) in solos.iter_mut().enumerate() {
                let what = format!("replay {replay} strict {strict} lane {lane}");
                let solo_out = solo.run_vcycles(10).unwrap();
                let gang_out = results[lane].as_ref().unwrap();
                assert_eq!(gang_out.vcycles_run, solo_out.vcycles_run, "{what}");
                assert_eq!(
                    gang.read_reg(lane, c00, r(1)),
                    solo.read_reg(c00, r(1)),
                    "{what}"
                );
                assert_eq!(gang.counters(lane), solo.counters(), "{what}");
            }
        }
    }

    /// A program that asserts `r1 != r3` every Vcycle (`Seq` + `Expect`):
    /// poking `r3` arms a fault at exactly the Vcycle the counter reaches
    /// it.
    fn tripwire_program() -> Arc<CompiledProgram> {
        let mut binary = empty_binary(1, 1, 6);
        binary.cores.push(CoreImage {
            core: CoreId::new(0, 0),
            body: vec![
                Instruction::Alu {
                    op: AluOp::Seq,
                    rd: r(4),
                    rs1: r(1),
                    rs2: r(3),
                },
                Instruction::Nop,
                Instruction::Expect {
                    rs1: r(4),
                    rs2: r(0),
                    eid: 7,
                },
                Instruction::Alu {
                    op: AluOp::Add,
                    rd: r(1),
                    rs1: r(1),
                    rs2: r(2),
                },
            ],
            epilogue_len: 0,
            custom_functions: vec![],
            // r3 defaults far out of reach; a poke brings it into range.
            init_regs: vec![(r(1), 0), (r(2), 1), (r(3), 0x7fff)],
            init_scratch: vec![],
        });
        binary.exceptions.push(ExceptionDescriptor {
            id: ExceptionId(7),
            kind: ExceptionKind::AssertFail {
                message: "tripwire".into(),
            },
        });
        CompiledProgram::compile_shared(test_config(1, 1), &binary).unwrap()
    }

    #[test]
    fn faulting_lane_parks_while_survivors_run_to_completion() {
        let program = tripwire_program();
        let c00 = CoreId::new(0, 0);
        let lanes = 4;
        let tripped = 2usize; // lane 2 faults when the counter reaches 5
        let mut gang = GangMachine::from_program(Arc::clone(&program), lanes);
        gang.poke_reg(tripped, c00, r(3), 5);
        let results = gang.run_vcycles(12);

        // The tripped lane reports the solo machine's exact error...
        let mut solo = Machine::from_program(Arc::clone(&program));
        solo.poke_reg(c00, r(3), 5);
        let solo_err = solo.run_vcycles(12).unwrap_err();
        match (&results[tripped], &solo_err) {
            (Err(g), s) => assert_eq!(format!("{g}"), format!("{s}")),
            other => panic!("expected lane {tripped} to fault, got {other:?}"),
        }
        // ...with state and counters frozen at the solo abort point.
        assert_eq!(gang.read_reg(tripped, c00, r(1)), solo.read_reg(c00, r(1)));
        assert_eq!(gang.counters(tripped), solo.counters());

        // Surviving lanes are untouched by the parked one.
        let mut clean = Machine::from_program(Arc::clone(&program));
        let clean_out = clean.run_vcycles(12).unwrap();
        for lane in (0..lanes).filter(|&l| l != tripped) {
            let out = results[lane].as_ref().unwrap();
            assert_eq!(out.vcycles_run, clean_out.vcycles_run, "lane {lane}");
            assert_eq!(
                gang.read_reg(lane, c00, r(1)),
                clean.read_reg(c00, r(1)),
                "lane {lane}"
            );
            assert_eq!(gang.counters(lane), clean.counters(), "lane {lane}");
        }

        // A later call keeps reporting the recorded fault and runs no
        // further Vcycles on the parked lane.
        let frozen = gang.counters(tripped);
        let again = gang.run_vcycles(3);
        assert!(again[tripped].is_err());
        assert_eq!(gang.counters(tripped), frozen);
    }

    #[test]
    fn into_machines_yields_resumable_solo_runs() {
        let program = counter_program();
        let c00 = CoreId::new(0, 0);
        let mut gang = GangMachine::from_program(Arc::clone(&program), 2);
        gang.poke_reg(1, c00, r(2), 3);
        let results = gang.run_vcycles(4);
        assert!(results.iter().all(|r| r.is_ok()));
        let mut machines = gang.into_machines();
        assert_eq!(machines[0].read_reg(c00, r(1)), 4);
        assert_eq!(machines[1].read_reg(c00, r(1)), 12);
        // Resuming an unbundled lane continues exactly where it stopped.
        machines[1].run_vcycles(2).unwrap();
        assert_eq!(machines[1].read_reg(c00, r(1)), 18);
    }
}

/// The gang kernel instantiations against solo runs: one hand-built
/// program whose flat Vcycle program holds every micro-op variant, run
/// through the portable kernel and, when the host has AVX2, the AVX2
/// kernel, at every row width.
mod gang_kernels {
    use super::*;
    use crate::grid::RunOutcome;
    use crate::uops::UOp;
    use crate::{save_checkpoint, CompiledProgram, GangMachine};
    use std::sync::Arc;

    const HOST: CoreId = CoreId { x: 0, y: 0 };
    const BUSY: CoreId = CoreId { x: 1, y: 0 };

    fn alu(op: AluOp, rd: u16, rs1: u16, rs2: u16) -> Instruction {
        Instruction::Alu {
            op,
            rd: r(rd),
            rs1: r(rs1),
            rs2: r(rs2),
        }
    }

    fn expect(rs1: u16, eid: u16) -> Instruction {
        Instruction::Expect {
            rs1: r(rs1),
            rs2: r(0),
            eid,
        }
    }

    /// `instrs` with a NOP after each, so every result is visible (hazard
    /// latency 2) to the instruction after it.
    fn spaced(instrs: Vec<Instruction>) -> Vec<Instruction> {
        instrs
            .into_iter()
            .flat_map(|i| [i, Instruction::Nop])
            .collect()
    }

    /// A 2×1 design whose lanes diverge in data, memory traffic and
    /// outcome:
    ///
    /// - (1,0) runs every ALU function, carry and borrow, mux, slice, two
    ///   custom functions, a constant, a predicated scratchpad store and
    ///   a load, folds the results into its state `r1`/`r2` (poked per
    ///   lane), and sends a digest to (0,0)'s `r30`;
    /// - (0,0) counts Vcycles in `r1`, stores and loads the cache at
    ///   addresses sliced from the digest, displays when the digest's
    ///   bit 1 is set, fails an assertion when `r1` reaches `r8` and
    ///   finishes when it reaches `r10` (both poked per lane).
    fn every_uop_program() -> Arc<CompiledProgram> {
        let mut binary = empty_binary(2, 1, 72);
        let mut host = spaced(vec![
            alu(AluOp::Add, 1, 1, 9),
            alu(AluOp::Seq, 7, 1, 8),
            alu(AluOp::Seq, 11, 1, 10),
            Instruction::Slice {
                rd: r(12),
                rs: r(30),
                offset: 2,
                width: 8,
            },
            Instruction::Slice {
                rd: r(15),
                rs: r(30),
                offset: 5,
                width: 8,
            },
            alu(AluOp::And, 13, 30, 9),
            Instruction::Predicate { rs: r(13) },
            Instruction::GlobalStore {
                rs_data: r(30),
                rs_addr: [r(12), r(0), r(0)],
            },
            Instruction::GlobalLoad {
                rd: r(14),
                rs_addr: [r(15), r(0), r(0)],
            },
            alu(AluOp::Add, 16, 16, 14),
            alu(AluOp::And, 17, 30, 18),
            expect(17, 0),
            expect(7, 1),
            expect(11, 2),
        ]);
        host.resize(60, Instruction::Nop);
        binary.cores.push(CoreImage {
            core: HOST,
            body: host,
            epilogue_len: 1,
            custom_functions: vec![],
            init_regs: vec![(r(8), 0x7fff), (r(9), 1), (r(10), 0x7fff), (r(18), 2)],
            init_scratch: vec![],
        });
        let busy = spaced(vec![
            alu(AluOp::Add, 3, 1, 2),
            alu(AluOp::Sub, 4, 1, 2),
            alu(AluOp::And, 5, 3, 4),
            alu(AluOp::Or, 6, 3, 1),
            alu(AluOp::Xor, 7, 6, 4),
            alu(AluOp::Sll, 8, 7, 1),
            alu(AluOp::Srl, 9, 7, 2),
            alu(AluOp::Sra, 10, 6, 3),
            alu(AluOp::Seq, 11, 8, 9),
            alu(AluOp::Sltu, 12, 3, 7),
            alu(AluOp::Slts, 13, 3, 7),
            alu(AluOp::Mul, 14, 3, 7),
            alu(AluOp::Mulh, 15, 3, 7),
            Instruction::AddCarry {
                rd: r(16),
                rs1: r(14),
                rs2: r(15),
                rs_carry: r(3),
            },
            Instruction::SubBorrow {
                rd: r(17),
                rs1: r(1),
                rs2: r(6),
                rs_borrow: r(4),
            },
            Instruction::Mux {
                rd: r(18),
                rs_sel: r(12),
                rs1: r(16),
                rs2: r(17),
            },
            Instruction::Slice {
                rd: r(19),
                rs: r(7),
                offset: 3,
                width: 9,
            },
            Instruction::Custom {
                rd: r(20),
                func: 0,
                rs: [r(3), r(7), r(18), r(19)],
            },
            Instruction::Custom {
                rd: r(21),
                func: 1,
                rs: [r(20), r(10), r(13), r(1)],
            },
            Instruction::Set {
                rd: r(22),
                imm: 0x5a5a,
            },
            Instruction::Predicate { rs: r(12) },
            Instruction::LocalStore {
                rs_data: r(20),
                rs_addr: r(19),
                base: 7,
            },
            Instruction::LocalLoad {
                rd: r(23),
                rs_addr: r(14),
                base: 7,
            },
            alu(AluOp::Xor, 24, 23, 22),
            alu(AluOp::Add, 2, 2, 24),
            alu(AluOp::Add, 1, 1, 18),
            alu(AluOp::Or, 25, 11, 21),
            Instruction::Send {
                target: HOST,
                rd_remote: r(30),
                rs: r(25),
            },
        ]);
        binary.cores.push(CoreImage {
            core: BUSY,
            body: busy,
            epilogue_len: 0,
            custom_functions: vec![
                [
                    0x6a3c, 0x0ff1, 0x9e37, 0x1234, 0xfeed, 0x8001, 0x5555, 0xc3c3, 0x0f0f, 0x7e7e,
                    0xa5a5, 0x1111, 0xdead, 0xbeef, 0x0246, 0x8ace,
                ],
                [0xe8e8; 16],
            ],
            init_regs: vec![],
            init_scratch: vec![(9, 0x4321), (100, 0x00ff)],
        });
        binary.exceptions.push(ExceptionDescriptor {
            id: ExceptionId(0),
            kind: ExceptionKind::Display {
                format: "acc = {} msg = {}".into(),
                args: vec![(vec![r(16)], 16), (vec![r(30)], 16)],
            },
        });
        binary.exceptions.push(ExceptionDescriptor {
            id: ExceptionId(1),
            kind: ExceptionKind::AssertFail {
                message: "tripped".into(),
            },
        });
        binary.exceptions.push(ExceptionDescriptor {
            id: ExceptionId(2),
            kind: ExceptionKind::Finish,
        });
        let program = CompiledProgram::compile_shared(test_config(2, 1), &binary).unwrap();
        Machine::from_program(Arc::clone(&program))
            .run_vcycles(1)
            .unwrap();
        assert!(program.schedule_proven());
        program
    }

    /// The variant index of a micro-op; no wildcard, so a new variant
    /// must be counted (and covered by [`every_uop_program`]).
    fn variant(op: &UOp) -> usize {
        match op {
            UOp::Set { .. } => 0,
            UOp::Add(_) => 1,
            UOp::Sub(_) => 2,
            UOp::And(_) => 3,
            UOp::Or(_) => 4,
            UOp::Xor(_) => 5,
            UOp::Sll(_) => 6,
            UOp::Srl(_) => 7,
            UOp::Sra(_) => 8,
            UOp::Seq(_) => 9,
            UOp::Sltu(_) => 10,
            UOp::Slts(_) => 11,
            UOp::Mul(_) => 12,
            UOp::Mulh(_) => 13,
            UOp::AddCarry { .. } => 14,
            UOp::SubBorrow { .. } => 15,
            UOp::Mux { .. } => 16,
            UOp::Slice { .. } => 17,
            UOp::Custom { .. } => 18,
            UOp::Predicate { .. } => 19,
            UOp::LocalLoad { .. } => 20,
            UOp::LocalStore { .. } => 21,
            UOp::GlobalLoad { .. } => 22,
            UOp::GlobalStore { .. } => 23,
            UOp::Send { .. } => 24,
            UOp::Expect { .. } => 25,
        }
    }
    const VARIANTS: usize = 26;

    /// Per-lane inputs: distinct state on (1,0); every fifth lane from
    /// lane 3 trips its assertion, and every fifth from lane 4 finishes,
    /// at lane-dependent Vcycles.
    fn pokes(lane: usize) -> [(CoreId, Reg, u16); 4] {
        let l = lane as u16;
        let trip = if lane % 5 == 3 { 4 + l % 13 } else { 0x7fff };
        let finish = if lane % 5 == 4 { 6 + l % 11 } else { 0x7fff };
        [
            (BUSY, r(1), l.wrapping_mul(0x9e37) ^ 0x1d),
            (BUSY, r(2), l * 7 + 3),
            (HOST, r(8), trip),
            (HOST, r(10), finish),
        ]
    }

    type Outcome = Result<RunOutcome, MachineError>;

    fn summary(res: &Outcome) -> String {
        match res {
            Ok(o) => format!("ok {} {:?} {}", o.vcycles_run, o.displays, o.finished),
            Err(e) => format!("err {e:?}"),
        }
    }

    /// One run split in two calls, so a lane parked in the first call
    /// must keep reporting it in the second.
    const SPLIT: [u64; 2] = [9, 24];

    #[test]
    fn every_kernel_matches_solo_runs_on_every_uop_at_every_width() {
        let program = every_uop_program();
        let up = program.micro_prog.as_ref().expect("the program replays");
        let mut seen = [false; VARIANTS];
        for op in &up.ops {
            seen[variant(op)] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "micro-op variants covered: {seen:?}"
        );

        // (row width, lanes): exact widths and padded ones.
        for (width, lanes) in [(1, 1), (2, 2), (4, 3), (8, 8), (16, 13), (32, 32), (64, 61)] {
            let mut solos: Vec<Machine> = (0..lanes)
                .map(|lane| {
                    let mut m = Machine::from_program(Arc::clone(&program));
                    for (core, reg, v) in pokes(lane) {
                        m.poke_reg(core, reg, v);
                    }
                    m
                })
                .collect();
            let solo_runs: Vec<Vec<String>> = solos
                .iter_mut()
                .map(|m| SPLIT.iter().map(|&n| summary(&m.run_vcycles(n))).collect())
                .collect();
            if lanes >= 8 {
                let ends: Vec<&str> = solo_runs.iter().map(|runs| &runs[1][..]).collect();
                assert!(
                    ends.iter().any(|e| e.starts_with("err")),
                    "{lanes}: a fault"
                );
                assert!(
                    ends.iter().any(|e| e.ends_with("true")),
                    "{lanes}: a finish"
                );
                assert!(ends.iter().any(|e| e.contains("acc")), "{lanes}: a display");
            }
            let mut states: Vec<Vec<Vec<u8>>> = Vec::new();
            for avx2 in [false, true] {
                let mut gang = GangMachine::from_program(Arc::clone(&program), lanes);
                gang.select_kernel(avx2);
                let what = format!("{} kernel, W = {width}, {lanes} lanes", gang.kernel());
                if avx2 && gang.kernel() != "avx2" {
                    eprintln!("{what}: AVX2 half skipped, this host has no AVX2");
                    continue;
                }
                assert_eq!(gang.reg_words() % width, 0, "{what}");
                assert!(gang.replay_armed(), "{what}: the kernel runs every Vcycle");
                for lane in 0..lanes {
                    for (core, reg, v) in pokes(lane) {
                        gang.poke_reg(lane, core, reg, v);
                    }
                }
                let runs: Vec<Vec<Outcome>> = SPLIT.iter().map(|&n| gang.run_vcycles(n)).collect();
                let mut bytes = Vec::new();
                for (lane, solo) in solos.iter().enumerate() {
                    for (call, want) in solo_runs[lane].iter().enumerate() {
                        assert_eq!(
                            &summary(&runs[call][lane]),
                            want,
                            "{what}: lane {lane} call {call}"
                        );
                    }
                    assert_eq!(gang.counters(lane), solo.counters(), "{what}: lane {lane}");
                    let state = save_checkpoint(&gang.checkpoint_lane(lane));
                    assert!(
                        state == save_checkpoint(&solo.checkpoint()),
                        "{what}: lane {lane} state (registers, scratchpad, cache, \\
                         counters, events, fault) differs from its solo run"
                    );
                    bytes.push(state);
                }
                states.push(bytes);
            }
            if let [portable, avx2] = &states[..] {
                assert!(
                    portable == avx2,
                    "W = {width}: the two kernels' lanes differ"
                );
            }
        }
    }
}

/// The gang's direct-commit ALU word kernels must be bit-equivalent to
/// `AluOp::eval` composed with the register-word storage format, for
/// every op and any carry bits on the input words.
#[test]
fn alu_word_matches_eval() {
    use manticore_util::SmallRng;
    let edges = [0u16, 1, 2, 15, 16, 17, 0x7fff, 0x8000, 0xfffe, 0xffff];
    let mut cases: Vec<(u32, u32)> = Vec::new();
    for &a in &edges {
        for &b in &edges {
            // Also set carry bits on the inputs: the kernels must mask
            // them out exactly like `as u16` does in the eval path.
            cases.push((a as u32, b as u32));
            cases.push((a as u32 | 1 << 16, b as u32));
            cases.push((a as u32, b as u32 | 1 << 16));
        }
    }
    let mut rng = SmallRng::seed_from_u64(0xa10);
    for _ in 0..20_000 {
        let a = rng.gen_range(0..1usize << 17) as u32;
        let b = rng.gen_range(0..1usize << 17) as u32;
        cases.push((a, b));
    }
    for op in manticore_isa::AluOp::ALL {
        for &(a, b) in &cases {
            let (v, c) = op.eval(a as u16, b as u16);
            let expect = v as u32 | ((c as u32) << 16);
            assert_eq!(
                crate::uops::alu_word(op, a, b),
                expect,
                "{op:?} a={a:#x} b={b:#x}"
            );
        }
    }
}

/// The bitsliced custom-function evaluation (transposed masks + mux
/// tree), scalar and over gang lane rows, must match the reference
/// bit-at-a-time `eval_custom` for random tables and inputs.
#[test]
fn custom_masks_match_reference() {
    use crate::exec::{custom_mux_tree, eval_custom, transpose_custom};
    use manticore_util::SmallRng;

    /// One random `[a, b, c, d]` row quad at width `W`, carry bits
    /// included (the rows hold them; the tree must ignore them), against
    /// the reference lane by lane.
    fn rows_match<const W: usize>(table: &[u16; 16], masks: &[u16; 16], rng: &mut SmallRng) {
        let rs: [[u32; W]; 4] =
            std::array::from_fn(|_| std::array::from_fn(|_| rng.gen_range(0..1usize << 17) as u32));
        let out = crate::gang::custom_row(masks, rs);
        for (k, &got) in out.iter().enumerate() {
            let [a, b, c, d] = rs.map(|row| row[k] as u16);
            assert_eq!(
                got,
                eval_custom(table, a, b, c, d) as u32,
                "W = {W} lane {k}"
            );
        }
    }

    let mut rng = SmallRng::seed_from_u64(0xc057);
    let r16 = |rng: &mut SmallRng| rng.gen_range(0..0x10000usize) as u16;
    for _ in 0..200 {
        let mut table = [0u16; 16];
        for t in table.iter_mut() {
            *t = r16(&mut rng);
        }
        let masks = transpose_custom(&table);
        let mut ins = [0u16; 16];
        for i in ins.iter_mut() {
            *i = r16(&mut rng);
        }
        // Scalar bitsliced form.
        for w in ins.windows(4) {
            assert_eq!(
                custom_mux_tree(&masks, w[0], w[1], w[2], w[3]),
                eval_custom(&table, w[0], w[1], w[2], w[3]),
            );
        }
        // Row form: one tree for every lane of the row.
        rows_match::<1>(&table, &masks, &mut rng);
        rows_match::<4>(&table, &masks, &mut rng);
        rows_match::<8>(&table, &masks, &mut rng);
        rows_match::<16>(&table, &masks, &mut rng);
    }
}

/// Sparse init images keep the dense form's last-write-wins semantics:
/// an explicit trailing zero cancels an earlier nonzero init.
#[test]
fn init_image_last_write_wins_through_sparse_form() {
    let mut binary = empty_binary(1, 1, 4);
    binary.cores.push(CoreImage {
        core: CoreId::new(0, 0),
        body: vec![Instruction::Nop],
        epilogue_len: 0,
        custom_functions: vec![],
        init_regs: vec![(r(1), 7), (r(1), 0), (r(2), 1), (r(2), 9)],
        init_scratch: vec![(3, 5), (3, 0), (4, 0), (4, 6)],
    });
    let m = Machine::load(test_config(1, 1), &binary).unwrap();
    assert_eq!(m.read_reg(CoreId::new(0, 0), r(1)), 0, "zero overwrites 7");
    assert_eq!(m.read_reg(CoreId::new(0, 0), r(2)), 9, "9 overwrites 1");
    assert_eq!(m.read_scratch(CoreId::new(0, 0), 3), 0);
    assert_eq!(m.read_scratch(CoreId::new(0, 0), 4), 6);
}

/// Once-per-program validation and the per-program state footprint.
mod footprint {
    use std::hash::Hasher;
    use std::sync::Arc;

    use manticore_isa::{
        AluOp, Binary, CoreId, CoreImage, ExceptionDescriptor, ExceptionId, ExceptionKind,
        Instruction, MachineConfig,
    };
    use manticore_util::FnvHasher;

    use super::{empty_binary, r, test_config};
    use crate::core::PendingWrite;
    use crate::noc::Message;
    use crate::{
        load_checkpoint, save_checkpoint, CompiledProgram, Machine, MachineError, PersistError,
    };

    const BUSY: CoreId = CoreId { x: 1, y: 0 };
    const INERT: CoreId = CoreId { x: 1, y: 1 };

    /// A 2×2 design touching a little of everything:
    ///
    /// - (1,0) counts in r1, stores the count to scratch[10], loads it
    ///   back into r4, and sends it to (0,0)'s r1 (delivered at 7);
    /// - (0,0) displays r1 at position 6 and asserts r3 == r0 at 7, so
    ///   poking r3 fails the run; its epilogue slot issues at 8;
    /// - (0,1) counts in r5 by r6 and never touches its scratchpad;
    /// - (1,1) has no program at all.
    ///
    /// The highest register named is r6, and only (1,0) addresses its
    /// scratchpad.
    fn design() -> (MachineConfig, Binary) {
        let mut binary = empty_binary(2, 2, 16);
        let mut core0 = vec![Instruction::Nop; 6];
        core0.push(Instruction::Expect {
            rs1: r(1),
            rs2: r(2),
            eid: 0,
        });
        core0.push(Instruction::Expect {
            rs1: r(3),
            rs2: r(0),
            eid: 7,
        });
        binary.cores.push(CoreImage {
            core: CoreId::new(0, 0),
            body: core0,
            epilogue_len: 1,
            custom_functions: vec![],
            init_regs: vec![(r(2), 0xffff)],
            init_scratch: vec![],
        });
        binary.cores.push(CoreImage {
            core: BUSY,
            body: vec![
                Instruction::Alu {
                    op: AluOp::Add,
                    rd: r(1),
                    rs1: r(1),
                    rs2: r(2),
                },
                Instruction::Predicate { rs: r(2) },
                Instruction::LocalStore {
                    rs_data: r(1),
                    rs_addr: r(0),
                    base: 10,
                },
                Instruction::LocalLoad {
                    rd: r(4),
                    rs_addr: r(0),
                    base: 10,
                },
                Instruction::Send {
                    target: CoreId::new(0, 0),
                    rd_remote: r(1),
                    rs: r(1),
                },
            ],
            epilogue_len: 0,
            custom_functions: vec![],
            init_regs: vec![(r(2), 1)],
            init_scratch: vec![],
        });
        binary.cores.push(CoreImage {
            core: CoreId::new(0, 1),
            body: vec![Instruction::Alu {
                op: AluOp::Add,
                rd: r(5),
                rs1: r(5),
                rs2: r(6),
            }],
            epilogue_len: 0,
            custom_functions: vec![],
            init_regs: vec![(r(6), 3)],
            init_scratch: vec![],
        });
        binary.exceptions.push(ExceptionDescriptor {
            id: ExceptionId(0),
            kind: ExceptionKind::Display {
                format: "count = {}".into(),
                args: vec![(vec![r(1)], 16)],
            },
        });
        binary.exceptions.push(ExceptionDescriptor {
            id: ExceptionId(7),
            kind: ExceptionKind::AssertFail {
                message: "r3 set".into(),
            },
        });
        (test_config(2, 2), binary)
    }

    /// A fresh compile of [`design`], not yet proven by any run.
    fn fresh() -> Arc<CompiledProgram> {
        let (config, binary) = design();
        CompiledProgram::compile_shared(config, &binary).unwrap()
    }

    /// A compile of [`design`] proven by one strict run.
    fn proven() -> Arc<CompiledProgram> {
        let program = fresh();
        Machine::from_program(Arc::clone(&program))
            .run_vcycles(1)
            .unwrap();
        assert!(program.schedule_proven());
        program
    }

    #[test]
    fn footprint_covers_named_registers_and_scratch_users() {
        let program = fresh();
        assert_eq!(program.reg_span(), 7);
        let lanes: Vec<bool> = (0..4)
            .map(|i| !program.scratch_range(i).is_empty())
            .collect();
        assert_eq!(lanes, [false, true, false, false]);
        let m = Machine::from_program(program);
        assert_eq!(m.scratch.len(), m.config().scratch_words);
        assert!(m.cores.iter().all(|c| c.inflight.len() == 7));
    }

    #[test]
    fn strict_validation_proves_the_program_once() {
        let program = fresh();
        assert!(!program.schedule_proven());
        // A permissive validation proves nothing about hazards.
        let mut permissive = Machine::from_program(Arc::clone(&program));
        permissive.set_strict_hazards(false);
        permissive.run_vcycles(2).unwrap();
        assert!(!program.schedule_proven());
        // With replay off the interpreter still validates, and proves.
        let mut interp = Machine::from_program(Arc::clone(&program));
        interp.set_replay(false);
        interp.run_vcycles(1).unwrap();
        assert!(program.schedule_proven());
    }

    /// Two fresh runs from one shared program; both must fail with the
    /// same error and leave the program unproven.
    fn fails_twice_unproven(config: MachineConfig, binary: &Binary) -> MachineError {
        let program = CompiledProgram::compile_shared(config, binary).unwrap();
        let first = Machine::from_program(Arc::clone(&program))
            .run_vcycles(3)
            .unwrap_err();
        assert!(!program.schedule_proven(), "{first}");
        let second = Machine::from_program(Arc::clone(&program))
            .run_vcycles(3)
            .unwrap_err();
        assert_eq!(first, second);
        assert!(!program.schedule_proven());
        first
    }

    #[test]
    fn failed_validation_never_marks_the_program_proven() {
        // Link collision: (0,0) and (1,0) both claim the x-link out of
        // (1,0) in the same cycle.
        let mut collide = empty_binary(3, 1, 16);
        for (x, lead) in [(0u8, 0usize), (1, 1)] {
            let mut body = vec![Instruction::Nop; lead];
            body.push(Instruction::Send {
                target: CoreId::new(2, 0),
                rd_remote: r(5 + x as u16),
                rs: r(0),
            });
            collide.cores.push(CoreImage {
                core: CoreId::new(x, 0),
                body,
                epilogue_len: 0,
                custom_functions: vec![],
                init_regs: vec![],
                init_scratch: vec![],
            });
        }
        collide.cores.push(CoreImage {
            core: CoreId::new(2, 0),
            body: vec![Instruction::Nop; 10],
            epilogue_len: 2,
            custom_functions: vec![],
            init_regs: vec![],
            init_scratch: vec![],
        });
        let err = fails_twice_unproven(test_config(3, 1), &collide);
        assert!(matches!(err, MachineError::LinkCollision { .. }), "{err}");

        // Strict hazard: r1 is read one cycle after its write.
        let mut hazard = empty_binary(1, 1, 6);
        hazard.cores.push(CoreImage {
            core: CoreId::new(0, 0),
            body: vec![
                Instruction::Alu {
                    op: AluOp::Add,
                    rd: r(1),
                    rs1: r(2),
                    rs2: r(2),
                },
                Instruction::Alu {
                    op: AluOp::Add,
                    rd: r(3),
                    rs1: r(1),
                    rs2: r(2),
                },
            ],
            epilogue_len: 0,
            custom_functions: vec![],
            init_regs: vec![(r(2), 5)],
            init_scratch: vec![],
        });
        let err = fails_twice_unproven(test_config(1, 1), &hazard);
        assert!(matches!(err, MachineError::Hazard { .. }), "{err}");
    }

    /// Runs `program` with r3 of (0,0) poked (the assertion fails in
    /// Vcycle 0) and returns the error, the displays that fired before
    /// it, and the counters at the abort.
    fn failing_run(
        program: &Arc<CompiledProgram>,
    ) -> (MachineError, Vec<String>, crate::PerfCounters) {
        let mut m = Machine::from_program(Arc::clone(program));
        m.poke_reg(CoreId::new(0, 0), r(3), 1);
        let err = m.run_vcycles(4).unwrap_err();
        (err, m.drain_pending_displays(), m.counters())
    }

    #[test]
    fn failing_vcycle0_expect_matches_on_trusted_and_validating_runs() {
        let validating = failing_run(&fresh());
        assert!(
            matches!(&validating.0, MachineError::AssertFailed { vcycle: 0, .. }),
            "{}",
            validating.0
        );
        assert_eq!(validating.1, ["count = 0"]);
        // The failing data never proves the program...
        let unproven = fresh();
        failing_run(&unproven);
        assert!(!unproven.schedule_proven());
        // ...and on a proven one the trusted first Vcycle reports the
        // same error, displays and counters.
        assert_eq!(failing_run(&proven()), validating);
    }

    #[test]
    fn replayed_faults_report_the_interpreters_counters() {
        // The assertion arms after three clean Vcycles, so the fault lands
        // in a replayed Vcycle on the micro-op engine.
        let run = |replay: bool| {
            let mut m = Machine::from_program(fresh());
            m.set_replay(replay);
            m.run_vcycles(3).unwrap();
            m.poke_reg(CoreId::new(0, 0), r(3), 1);
            let err = m.run_vcycles(4).unwrap_err();
            (err, m.drain_pending_displays(), m.counters())
        };
        let interp = run(false);
        assert!(matches!(
            interp.0,
            MachineError::AssertFailed { vcycle: 3, .. }
        ));
        assert_eq!(run(true), interp);
    }

    #[test]
    fn ganged_vcycle0_fault_matches_a_validating_solo_run() {
        let (err, displays, counters) = failing_run(&fresh());
        // On a proven program the gang starts in its lane-row kernel; the
        // poked lane parks exactly where a validating solo run aborts,
        // and its siblings run on untouched.
        let program = proven();
        let mut gang = crate::GangMachine::from_program(Arc::clone(&program), 3);
        gang.poke_reg(1, CoreId::new(0, 0), r(3), 1);
        let results = gang.run_vcycles(4);
        assert_eq!(results[1].as_ref().unwrap_err(), &err);
        assert_eq!(gang.drain_pending_displays(1), displays);
        assert_eq!(gang.counters(1), counters);
        let mut solo = Machine::from_program(program);
        solo.run_vcycles(4).unwrap();
        for lane in [0, 2] {
            assert_eq!(results[lane].as_ref().unwrap().vcycles_run, 4);
            assert_eq!(gang.counters(lane), solo.counters());
        }
    }

    /// One `run_vcycles` result in comparable form: the error, or the
    /// outcome's Vcycle count, displays and finish flag.
    fn summary(
        res: &Result<crate::RunOutcome, MachineError>,
    ) -> Result<(u64, Vec<String>, bool), MachineError> {
        res.as_ref()
            .map(|o| (o.vcycles_run, o.displays.clone(), o.finished))
            .map_err(Clone::clone)
    }

    #[test]
    fn ganged_lanes_fall_back_to_the_solo_engine_after_a_knob_change() {
        // A gang whose knobs change mid-run: ganged micro-op Vcycles, then
        // replay off; or permissive solo-engine Vcycles, then strictness
        // re-armed (which keeps the rest of the run on the interpreter).
        // Every fallback Vcycle gathers each running lane into its shell,
        // steps it on the solo engine and scatters it back. Each lane must
        // equal a solo machine given the same knob sequence, pokes and
        // budgets — including a lane that faults in the fallback.
        let program = proven();
        let lanes = 3;
        let c00 = CoreId::new(0, 0);
        for permissive_start in [false, true] {
            let knobs = if permissive_start {
                "permissive then strict"
            } else {
                "replay off"
            };
            let switch = |m: &mut Machine| {
                if permissive_start {
                    m.set_strict_hazards(true);
                } else {
                    m.set_replay(false);
                }
            };
            let mut gang = crate::GangMachine::from_program(Arc::clone(&program), lanes);
            gang.set_strict_hazards(!permissive_start);
            let mut solos: Vec<Machine> = (0..lanes)
                .map(|lane| {
                    let mut m = Machine::from_program(Arc::clone(&program));
                    m.set_strict_hazards(!permissive_start);
                    m.poke_reg(BUSY, r(2), lane as u16 + 1);
                    gang.poke_reg(lane, BUSY, r(2), lane as u16 + 1);
                    m
                })
                .collect();
            // Only a strict gang on a proven program runs the kernel.
            assert_eq!(gang.replay_armed(), !permissive_start, "{knobs}");
            let first = gang.run_vcycles(4);
            if permissive_start {
                gang.set_strict_hazards(true);
            } else {
                gang.set_replay(false);
            }
            assert!(!gang.replay_armed(), "{knobs}: falls back");
            gang.poke_reg(1, c00, r(3), 1); // lane 1 faults in the fallback
            let second = gang.run_vcycles(5);
            let mut machines = gang.into_machines();
            for (lane, solo) in solos.iter_mut().enumerate() {
                let what = format!("{knobs}: lane {lane}");
                assert_eq!(
                    summary(&first[lane]),
                    summary(&solo.run_vcycles(4)),
                    "{what}"
                );
                switch(solo);
                if lane == 1 {
                    solo.poke_reg(c00, r(3), 1);
                }
                assert_eq!(
                    summary(&second[lane]),
                    summary(&solo.run_vcycles(5)),
                    "{what}"
                );
                assert_eq!(second[lane].is_err(), lane == 1, "{what}");
                assert_eq!(
                    machines[lane].drain_pending_displays(),
                    solo.drain_pending_displays(),
                    "{what}"
                );
                assert_same_state(&machines[lane], solo, &what);
            }
        }
    }

    /// Architectural comparison: counters, per-core executed counts, and
    /// the state fingerprint (every register through the flushed host
    /// view, every scratchpad word).
    fn assert_same_state(a: &Machine, b: &Machine, what: &str) {
        assert_eq!(a.counters(), b.counters(), "{what}: counters");
        assert_eq!(a.executed_per_core(), b.executed_per_core(), "{what}");
        assert_eq!(a.state_fingerprint(), b.state_fingerprint(), "{what}");
    }

    #[test]
    fn trusted_and_validated_runs_hold_identical_state() {
        let program = fresh();
        let mut validated = Machine::from_program(Arc::clone(&program));
        let mut trusted = Machine::from_program(Arc::clone(&program));
        validated.run_vcycles(1).unwrap();
        assert!(program.schedule_proven());
        trusted.run_vcycles(1).unwrap();
        // The durable bytes hold everything else too: the NoC (the
        // validated run's link reservations are gone) and the pipeline
        // rings. This design leaves no write in flight across the Vcycle
        // boundary; one that did would sit in the validated run's ring
        // while the trusted run's direct-commit micro-ops had already
        // committed it — the same architectural state, other bytes.
        for vcycle in [1, 6] {
            let a = validated
                .run_vcycles(vcycle - validated.counters().vcycles)
                .unwrap();
            let b = trusted
                .run_vcycles(vcycle - trusted.counters().vcycles)
                .unwrap();
            assert_eq!(a.displays, b.displays);
            assert_same_state(&validated, &trusted, "trusted vs validated");
            let same =
                save_checkpoint(&validated.checkpoint()) == save_checkpoint(&trusted.checkpoint());
            assert!(same, "checkpoint bytes differ at Vcycle {vcycle}");
        }
    }

    #[test]
    fn permissive_run_of_a_proven_program_matches_its_interpreter_run() {
        let program = proven();
        let mut fast = Machine::from_program(Arc::clone(&program));
        let mut interp = Machine::from_program(Arc::clone(&program));
        fast.set_strict_hazards(false);
        interp.set_strict_hazards(false);
        interp.set_replay(false);
        // A proven program does not arm replay for a permissive run.
        assert!(!fast.replay_armed());
        let a = fast.run_vcycles(6).unwrap();
        let b = interp.run_vcycles(6).unwrap();
        assert_eq!(a.displays, b.displays);
        assert_eq!(fast.executed_per_core(), interp.executed_per_core());
        assert_same_state(&fast, &interp, "permissive");
    }

    #[test]
    fn pokes_above_the_footprint_read_back_after_a_run() {
        for program in [fresh(), proven()] {
            let mut m = Machine::from_program(program);
            m.poke_reg(BUSY, r(100), 0xbeef);
            m.poke_reg(INERT, r(2047), 0x1234);
            m.run_vcycles(3).unwrap();
            assert_eq!(m.read_reg(BUSY, r(100)), 0xbeef);
            assert_eq!(m.read_reg(INERT, r(2047)), 0x1234);
            assert_eq!(m.read_reg(BUSY, r(4)), 3, "scratch round trip");
        }
        // A gang's solo-engine fallback copies only each core's footprint
        // between the lane rows and the lane's shell, so a poke
        // above it must survive replay-off and permissive Vcycles there
        // and read back through every lane view like a solo run's.
        let lanes = 2;
        for (replay, strict) in [(false, true), (true, false)] {
            let program = proven();
            let mut gang = crate::GangMachine::from_program(Arc::clone(&program), lanes);
            gang.set_replay(replay);
            gang.set_strict_hazards(strict);
            assert!(!gang.replay_armed());
            let mut solos: Vec<Machine> = (0..lanes)
                .map(|lane| {
                    let mut m = Machine::from_program(Arc::clone(&program));
                    m.set_replay(replay);
                    m.set_strict_hazards(strict);
                    for (core, reg, value) in [(BUSY, r(100), 0xbee0), (INERT, r(2047), 0x1230)] {
                        m.poke_reg(core, reg, value + lane as u16);
                        gang.poke_reg(lane, core, reg, value + lane as u16);
                    }
                    m
                })
                .collect();
            let results = gang.run_vcycles(3);
            for (lane, solo) in solos.iter_mut().enumerate() {
                let what = format!("gang replay {replay} strict {strict} lane {lane}");
                solo.run_vcycles(3).unwrap();
                assert!(results[lane].is_ok(), "{what}");
                assert_eq!(gang.read_reg(lane, BUSY, r(100)), 0xbee0 + lane as u16);
                for (core, reg) in [(BUSY, r(100)), (INERT, r(2047)), (BUSY, r(4))] {
                    assert_eq!(
                        gang.read_reg(lane, core, reg),
                        solo.read_reg(core, reg),
                        "{what}: {core} {reg}"
                    );
                }
                let same = save_checkpoint(&gang.checkpoint_lane(lane))
                    == save_checkpoint(&solo.checkpoint());
                assert!(same, "{what}: checkpoint bytes differ");
            }
            for (lane, (m, solo)) in gang.into_machines().iter().zip(&solos).enumerate() {
                let what = format!("gang replay {replay} strict {strict} lane {lane}");
                assert_eq!(m.read_reg(INERT, r(2047)), 0x1230 + lane as u16, "{what}");
                assert_same_state(m, solo, &what);
            }
        }
    }

    /// A 2×2 design whose assertion fails mid-Vcycle on a poked register:
    /// (0,0) bumps r5 at position 0, asserts r3 == r0 at 3, bumps r6 at 4
    /// and receives (1,0)'s count into r4; (1,0) counts in r1 by r2; the
    /// other two cores have no program. The span is 7 (r6).
    fn midcycle_tripwire() -> Arc<CompiledProgram> {
        let mut binary = empty_binary(2, 2, 16);
        let bump = |rd: u16| Instruction::Alu {
            op: AluOp::Add,
            rd: r(rd),
            rs1: r(rd),
            rs2: r(2),
        };
        let mut core0 = vec![Instruction::Nop; 8];
        core0[0] = bump(5);
        core0[3] = Instruction::Expect {
            rs1: r(3),
            rs2: r(0),
            eid: 7,
        };
        core0[4] = bump(6);
        binary.cores.push(CoreImage {
            core: CoreId::new(0, 0),
            body: core0,
            epilogue_len: 1,
            custom_functions: vec![],
            init_regs: vec![(r(2), 1)],
            init_scratch: vec![],
        });
        let mut busy = vec![Instruction::Nop; 5];
        busy[0] = bump(1);
        busy[4] = Instruction::Send {
            target: CoreId::new(0, 0),
            rd_remote: r(4),
            rs: r(1),
        };
        binary.cores.push(CoreImage {
            core: BUSY,
            body: busy,
            epilogue_len: 0,
            custom_functions: vec![],
            init_regs: vec![(r(2), 1)],
            init_scratch: vec![],
        });
        binary.exceptions.push(ExceptionDescriptor {
            id: ExceptionId(7),
            kind: ExceptionKind::AssertFail {
                message: "r3 set".into(),
            },
        });
        let program = CompiledProgram::compile_shared(test_config(2, 2), &binary).unwrap();
        Machine::from_program(Arc::clone(&program))
            .run_vcycles(1)
            .unwrap();
        assert!(program.schedule_proven());
        program
    }

    #[test]
    fn gang_lane_parked_mid_vcycle_and_pokes_outside_the_rows_read_back_at_widths_4_and_8() {
        let program = midcycle_tripwire();
        let c00 = CoreId::new(0, 0);
        // Registers in the rows, above the span on footprint cores, and
        // on a core without a program.
        let probes = [
            (c00, r(4)),
            (c00, r(5)),
            (c00, r(6)),
            (c00, r(40)),
            (BUSY, r(1)),
            (BUSY, r(100)),
            (INERT, r(2047)),
        ];
        for lanes in [3, 4, 8] {
            let mut gang = crate::GangMachine::from_program(Arc::clone(&program), lanes);
            assert_eq!(gang.reg_words(), 2 * 7 * lanes.next_power_of_two());
            let pokes = |lane: usize| {
                let l = lane as u16;
                [
                    (BUSY, r(2), l + 1),
                    (BUSY, r(100), 0xbe00 + l),
                    (c00, r(40), 0x4000 + l),
                    (INERT, r(2047), 0x1200 + l),
                ]
            };
            let mut solos: Vec<Machine> = (0..lanes)
                .map(|lane| {
                    let mut m = Machine::from_program(Arc::clone(&program));
                    for (core, reg, v) in pokes(lane) {
                        m.poke_reg(core, reg, v);
                        gang.poke_reg(lane, core, reg, v);
                    }
                    m
                })
                .collect();
            let first = gang.run_vcycles(2);
            // Lane 1 fails its assertion in the next Vcycle, after (0,0)
            // bumped r5 and before it bumps r6 or any other core runs.
            gang.poke_reg(1, c00, r(3), 1);
            let second = gang.run_vcycles(3);
            // Pokes after the park: into the parked lane's shell, and
            // outside the rows of a running lane.
            let late = [(1, INERT, r(2047), 0x5a5a), (0, BUSY, r(100), 0x0ddd)];
            for (lane, core, reg, v) in late {
                gang.poke_reg(lane, core, reg, v);
            }
            for (lane, solo) in solos.iter_mut().enumerate() {
                let what = format!("lanes {lanes} lane {lane}");
                assert_eq!(
                    summary(&first[lane]),
                    summary(&solo.run_vcycles(2)),
                    "{what}"
                );
                if lane == 1 {
                    solo.poke_reg(c00, r(3), 1);
                }
                let solo_second = solo.run_vcycles(3);
                assert_eq!(summary(&second[lane]), summary(&solo_second), "{what}");
                assert_eq!(second[lane].is_err(), lane == 1, "{what}");
                if lane == 1 {
                    assert_eq!(gang.counters(lane).vcycles, 2, "{what}: parked mid-Vcycle");
                }
                for (_, core, reg, v) in late.into_iter().filter(|p| p.0 == lane) {
                    solo.poke_reg(core, reg, v);
                }
                for (core, reg) in probes {
                    assert_eq!(
                        gang.read_reg(lane, core, reg),
                        solo.read_reg(core, reg),
                        "{what}: {core} {reg}"
                    );
                }
                let same = save_checkpoint(&gang.checkpoint_lane(lane))
                    == save_checkpoint(&solo.checkpoint());
                assert!(same, "{what}: checkpoint bytes differ");
            }
            for (lane, (m, solo)) in gang.into_machines().iter().zip(&solos).enumerate() {
                let what = format!("lanes {lanes} lane {lane} unbundled");
                for (core, reg) in probes {
                    assert_eq!(m.read_reg(core, reg), solo.read_reg(core, reg), "{what}");
                }
                assert_same_state(m, solo, &what);
            }
        }
    }

    /// The fingerprint's defining formula: one FNV step per counter, per
    /// register of every core through [`Machine::read_reg`], per
    /// scratchpad word, then the finished flag — the oracle the
    /// footprint-proportional [`Machine::state_fingerprint`] must equal.
    fn dense_fingerprint(m: &Machine) -> u64 {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| h = (h ^ v).wrapping_mul(PRIME);
        let c = m.counters();
        for v in [
            c.compute_cycles,
            c.stall_cycles,
            c.vcycles,
            c.instructions,
            c.sends,
            c.messages_delivered,
            c.exceptions,
        ] {
            mix(v);
        }
        let config = m.config();
        for y in 0..config.grid_height {
            for x in 0..config.grid_width {
                let core = CoreId::new(x as u8, y as u8);
                for reg in 0..config.regfile_size {
                    mix(m.read_reg(core, r(reg as u16)) as u64);
                }
                for &w in m.core_scratch(core) {
                    mix(w as u64);
                }
            }
        }
        mix(m.finished() as u64);
        h
    }

    /// Toggle coverage by its definition, over every register through
    /// [`Machine::read_reg`]: `(newly covered bits, covered bits)` after
    /// folding `m` into the dense `(seen_set, seen_clear)` maps.
    fn dense_observe(maps: &mut (Vec<u16>, Vec<u16>), m: &Machine) -> (u64, u64) {
        let config = m.config();
        let rf = config.regfile_size;
        let mut newly = 0;
        for i in 0..maps.0.len() {
            let core = CoreId::new(
                ((i / rf) % config.grid_width) as u8,
                (i / rf / config.grid_width) as u8,
            );
            let v = m.read_reg(core, r((i % rf) as u16));
            let before = (maps.0[i] & maps.1[i]).count_ones();
            maps.0[i] |= v;
            maps.1[i] |= !v;
            newly += u64::from((maps.0[i] & maps.1[i]).count_ones() - before);
        }
        let covered = maps
            .0
            .iter()
            .zip(&maps.1)
            .map(|(s, c)| u64::from((s & c).count_ones()))
            .sum();
        (newly, covered)
    }

    /// Machines in every state the footprint split must see through:
    /// fresh and proven programs, pokes above the footprint, a faulted
    /// run, every lane of an unbundled gang, and restored checkpoints —
    /// one carrying a write in flight across the Vcycle boundary.
    fn footprint_states() -> Vec<(String, Machine)> {
        let mut states = Vec::new();
        for (name, program) in [("fresh", fresh()), ("proven", proven())] {
            let copy = |m: &Machine| {
                let mut c = Machine::from_program(Arc::clone(&program));
                c.restore(&m.checkpoint()).unwrap();
                c
            };
            let mut m = Machine::from_program(Arc::clone(&program));
            states.push((format!("{name} at boot"), copy(&m)));
            m.run_vcycles(5).unwrap();
            states.push((format!("{name} after 5"), copy(&m)));
            m.poke_reg(BUSY, r(100), 0xbeef);
            m.poke_reg(INERT, r(2047), 0x1234);
            m.poke_reg(CoreId::new(0, 1), r(2000), 0x8000);
            m.run_vcycles(3).unwrap();
            states.push((format!("{name} poked"), copy(&m)));

            let mut faulted = Machine::from_program(Arc::clone(&program));
            faulted.run_vcycles(2).unwrap();
            faulted.poke_reg(CoreId::new(0, 0), r(3), 1);
            assert!(faulted.run_vcycles(3).is_err());
            assert!(faulted.fault().is_some());
            states.push((format!("{name} faulted"), faulted));

            let mut gang = crate::GangMachine::from_program(Arc::clone(&program), 3);
            gang.poke_reg(0, INERT, r(2047), 7);
            gang.poke_reg(1, CoreId::new(0, 0), r(3), 1);
            gang.poke_reg(2, BUSY, r(1), 0xffff);
            gang.run_vcycles(4);
            for (lane, m) in gang.into_machines().into_iter().enumerate() {
                states.push((format!("{name} gang lane {lane}"), m));
            }

            let mut restored = Machine::from_program(Arc::clone(&program));
            let bytes = save_checkpoint(&m.checkpoint());
            restored
                .restore(&load_checkpoint(&bytes, &program).unwrap())
                .unwrap();
            states.push((format!("{name} restored"), restored));

            // A write to r4 of (1,0) still in the pipeline: the flushed
            // view reads its value, not the committed word.
            let mut cp = m.checkpoint();
            let cs = &mut cp.cores[1];
            let slot = ((cs.ring_head + cs.ring_len) & cs.ring_mask) as usize;
            cs.ring[slot] = PendingWrite {
                commit_at: u64::MAX,
                reg: 4,
                value: 0x5a5a,
                carry: false,
            };
            cs.inflight[4] += 1;
            cs.last_writer[4] = slot as u32;
            cs.ring_len += 1;
            let mut in_flight = Machine::from_program(Arc::clone(&program));
            in_flight.restore(&cp).unwrap();
            assert_eq!(in_flight.read_reg(BUSY, r(4)), 0x5a5a);
            states.push((format!("{name} write in flight"), in_flight));
        }
        states
    }

    #[test]
    fn fingerprint_equals_the_dense_formula() {
        for (what, m) in footprint_states() {
            assert_eq!(m.state_fingerprint(), dense_fingerprint(&m), "{what}");
        }
    }

    #[test]
    fn coverage_equals_the_dense_definition() {
        let program = fresh();
        let mut map = crate::CoverageMap::for_program(&program);
        let words = program.num_cores() * program.config().regfile_size;
        let mut dense = (vec![0u16; words], vec![0u16; words]);
        for (what, m) in footprint_states() {
            let newly = map.observe(&m);
            assert_eq!(
                (newly, map.covered_bits()),
                dense_observe(&mut dense, &m),
                "{what}"
            );
        }
    }

    #[test]
    fn laneless_scratchpads_read_as_zeros() {
        let mut m = Machine::from_program(fresh());
        m.run_vcycles(3).unwrap();
        let sw = m.config().scratch_words;
        for core in [CoreId::new(0, 0), CoreId::new(0, 1), INERT] {
            assert_eq!(m.core_scratch(core), vec![0u16; sw], "{core}");
            assert_eq!(m.read_scratch(core, 10), 0);
        }
        assert_eq!(m.read_scratch(BUSY, 10), 3);
        assert_eq!(m.core_scratch(BUSY).len(), sw);
    }

    /// Recomputes the checksum trailer over hand-edited bytes.
    fn reseal(mut bytes: Vec<u8>) -> Vec<u8> {
        let end = bytes.len() - 8;
        let mut h = FnvHasher::default();
        h.write(&bytes[..end]);
        bytes[end..].copy_from_slice(&h.finish().to_le_bytes());
        bytes
    }

    fn assert_corrupt(bytes: &[u8], program: &Arc<CompiledProgram>, what: &str) {
        match load_checkpoint(bytes, program) {
            Err(PersistError::Corrupt { detail }) => {
                assert!(detail.contains(what), "{detail}")
            }
            other => panic!("expected Corrupt({what}), got {other:?}"),
        }
    }

    #[test]
    fn load_rejects_registers_outside_the_footprint() {
        let program = fresh();
        let mut m = Machine::from_program(Arc::clone(&program));
        m.run_vcycles(2).unwrap();
        let clean = m.checkpoint();
        assert!(load_checkpoint(&save_checkpoint(&clean), &program).is_ok());
        // Register 7 is inside the register file but past the footprint.
        let outside = manticore_isa::Reg(7);

        let mut ring = clean.clone();
        let cs = &mut ring.cores[1];
        let slot = ((cs.ring_head + cs.ring_len) & cs.ring_mask) as usize;
        cs.ring[slot] = PendingWrite {
            commit_at: u64::MAX,
            reg: outside.0,
            value: 1,
            carry: false,
        };
        cs.ring_len += 1;
        assert_corrupt(&save_checkpoint(&ring), &program, "footprint");

        let mut epilogue = clean.clone();
        epilogue.cores[0].epilogue[0] = Some((outside, 1));
        assert_corrupt(&save_checkpoint(&epilogue), &program, "footprint");

        let mut message = clean.clone();
        message.noc.in_flight.push(Message {
            target: CoreId::new(0, 0),
            rd: outside,
            value: 1,
            arrive_at: u64::MAX,
        });
        assert_corrupt(&save_checkpoint(&message), &program, "footprint");
    }

    #[test]
    fn load_rejects_scratch_words_on_laneless_cores() {
        let program = fresh();
        let mut m = Machine::from_program(Arc::clone(&program));
        // A recognisable run of words opens the register section.
        for (i, v) in [0xa1b2u16, 0xc3d4, 0xe5f6, 0x1789].into_iter().enumerate() {
            m.poke_reg(CoreId::new(0, 0), manticore_isa::Reg(100 + i as u16), v);
        }
        m.run_vcycles(2).unwrap();
        let bytes = save_checkpoint(&m.checkpoint());
        let config = program.config();
        let marker: Vec<u8> = [0xa1b2u32, 0xc3d4, 0xe5f6, 0x1789]
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .collect();
        let regs_at = bytes
            .windows(marker.len())
            .position(|w| w == marker)
            .expect("marker in the register section")
            - 100 * 4;
        let scratch_at = regs_at + program.num_cores() * config.regfile_size * 4;
        // Byte offset of core `idx`'s scratchpad word `addr`.
        let word_at =
            |idx: usize, addr: usize| scratch_at + (idx * config.scratch_words + addr) * 2;
        // (1,0)'s lane holds the stored count at word 10; (0,1) has none.
        assert_eq!(bytes[word_at(1, 10)], 2, "located the scratch section");
        let mut bad = bytes.clone();
        bad[word_at(2, 5)] = 1;
        assert_corrupt(&reseal(bad), &program, "never addresses");
    }
}
