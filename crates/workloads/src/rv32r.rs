//! `rv32r` — sixteen small in-order RISC cores communicating over a ring.
//!
//! The paper instantiates 16 `riscv-mini` RV32I cores on a ring network.
//! Building a full RV32I in the netlist DSL would dominate the suite, so
//! each core here is "MiniRV": a 16-bit, ROM-programmed, 4-register
//! in-order core with an ALU and ring send/receive ops — preserving the
//! profile that matters (replicated CPU pipelines with low-bandwidth ring
//! traffic). A scaled analog, per the README's "Substitutions relative to
//! the paper".
//!
//! MiniRV instruction word (16 bits): `op[15:14] rd[13:12] rs[11:10]
//! imm[9:0]`; ops: 0 `addi rd, rs, imm`; 1 `xori rd, rs, imm`;
//! 2 `ring.send rs` (drive this core's ring register); 3 `ring.add rd, rs`
//! (rd = rs + predecessor's ring register).

use manticore_bits::Bits;
use manticore_netlist::{Netlist, NetlistBuilder};

use crate::util::finish_after;

/// Default: 16 cores, 8-instruction ROMs.
pub fn rv32r() -> Netlist {
    rv32r_sized(16, 2000)
}

/// `ncores` MiniRV cores on a unidirectional ring.
pub fn rv32r_sized(ncores: usize, cycles: u64) -> Netlist {
    let mut b = NetlistBuilder::new("rv32r");
    const ROM: usize = 8;

    let encode = |op: u16, rd: u16, rs: u16, imm: u16| -> Bits {
        Bits::from_u64(
            (((op & 3) << 14) | ((rd & 3) << 12) | ((rs & 3) << 10) | (imm & 0x3ff)) as u64,
            16,
        )
    };

    // Ring registers first: registers permit forward references, so core i
    // can read core (i-1)'s ring output before that core is built.
    let ring_regs: Vec<_> = (0..ncores)
        .map(|c| b.reg(format!("ring{c}"), 16, (c as u64) << 4))
        .collect();

    let mut alive_bits = Vec::new();
    for core in 0..ncores {
        let rom_words: Vec<Bits> = vec![
            encode(0, 0, 0, (core as u16 * 37 + 11) & 0x3ff), // addi r0, r0, k
            encode(1, 1, 0, 0x155),                           // xori r1, r0, 0x155
            encode(0, 2, 1, (core as u16 * 13 + 5) & 0x3ff),  // addi r2, r1, k2
            encode(2, 0, 2, 0),                               // ring.send r2
            encode(3, 3, 0, 0),                               // ring.add r3, r0
            encode(1, 0, 3, 0x2aa),                           // xori r0, r3, 0x2aa
            encode(0, 1, 2, 1),                               // addi r1, r2, 1
            encode(2, 0, 1, 0),                               // ring.send r1
        ];
        let rom = b.memory_init(format!("rom{core}"), ROM, 16, rom_words);

        // Program counter (wraps the 8-entry ROM).
        let pc = b.reg(format!("pc{core}"), 3, 0);
        let one3 = b.lit(1, 3);
        let pc_next = b.add(pc.q(), one3);
        b.set_next(pc, pc_next);

        // Fetch + decode.
        let instr = b.mem_read(rom, pc.q());
        let op = b.slice(instr, 14, 2);
        let rd = b.slice(instr, 12, 2);
        let rs = b.slice(instr, 10, 2);
        let imm = b.slice(instr, 0, 10);
        let imm16 = b.zext(imm, 16);

        // 4-entry register file: mux read, decoded write.
        let regs: Vec<_> = (0..4)
            .map(|i| b.reg(format!("x{core}_{i}"), 16, (core * 3 + i + 1) as u64))
            .collect();
        let mut rs_val = regs[0].q();
        for (i, r) in regs.iter().enumerate().skip(1) {
            let i_c = b.lit(i as u64, 2);
            let sel = b.eq(rs, i_c);
            rs_val = b.mux(sel, r.q(), rs_val);
        }

        // Execute.
        let ring_in = ring_regs[(core + ncores - 1) % ncores].q();
        let add_res = b.add(rs_val, imm16);
        let xor_res = b.xor(rs_val, imm16);
        let ring_res = b.add(rs_val, ring_in);
        let c0 = b.lit(0, 2);
        let c1 = b.lit(1, 2);
        let c2 = b.lit(2, 2);
        let is_add = b.eq(op, c0);
        let is_xor = b.eq(op, c1);
        let is_send = b.eq(op, c2);
        let t = b.mux(is_xor, xor_res, ring_res);
        let wb_val = b.mux(is_add, add_res, t);
        let not_send = b.not(is_send);
        for (i, r) in regs.iter().enumerate() {
            let i_c = b.lit(i as u64, 2);
            let is_rd = b.eq(rd, i_c);
            let en = b.and(not_send, is_rd);
            let next = b.mux(en, wb_val, r.q());
            b.set_next(*r, next);
        }

        // Ring output: updated on ring.send, else held.
        let ring_next = b.mux(is_send, rs_val, ring_regs[core].q());
        b.set_next(ring_regs[core], ring_next);

        let z = b.lit(0, 3);
        let pc_ok = b.uge(pc.q(), z); // trivially true: pc in range
        alive_bits.push(pc_ok);
    }

    // Driver: checksum of ring traffic, invariant, finish.
    let mut fold = ring_regs[0].q();
    for r in &ring_regs[1..] {
        fold = b.xor(fold, r.q());
    }
    let csum = b.reg("ring_csum", 16, 0);
    let mixed = b.add(csum.q(), fold);
    b.set_next(csum, mixed);
    b.output("ring_csum", csum.q());

    let mut ok = alive_bits[0];
    for &a in &alive_bits[1..] {
        ok = b.and(ok, a);
    }
    b.expect_true(ok, "a MiniRV program counter escaped its ROM");

    finish_after(&mut b, cycles);
    b.finish_build()
        .expect("rv32r netlist is structurally valid")
}
