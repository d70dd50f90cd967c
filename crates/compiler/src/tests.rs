//! Compiler tests, centred on three-way differential testing: the netlist
//! evaluator (ground truth), the lower-assembly interpreter, and the full
//! machine model must agree on every register, every cycle — the same
//! validation methodology the paper describes for its interpreters.

use manticore_bits::Bits;
use manticore_isa::MachineConfig;
use manticore_machine::Machine;
use manticore_netlist::{eval::Evaluator, Netlist, NetlistBuilder};
use manticore_util::SmallRng;

use crate::cfu::{self, CfuStats};
use crate::interp::LirInterp;
use crate::lir::LirProgram;
use crate::pass::{CompileCtx, PassManager};
use crate::{compile, opt, CompileOptions, PartitionStrategy};

fn test_config(grid: usize) -> MachineConfig {
    MachineConfig {
        grid_width: grid,
        grid_height: grid,
        hazard_latency: 4,
        ..Default::default()
    }
}

pub(crate) fn options(grid: usize) -> CompileOptions {
    CompileOptions {
        config: test_config(grid),
        ..Default::default()
    }
}

/// The custom-functions pass's input: `netlist` compiled for a
/// `grid`×`grid` machine through `partition`, with synthesis off.
pub(crate) fn cfu_input(netlist: &Netlist, grid: usize) -> LirProgram {
    let options = CompileOptions {
        config: MachineConfig::with_grid(grid, grid),
        custom_functions: false,
        ..Default::default()
    };
    let mut ctx = CompileCtx::new(netlist, &options, 1);
    PassManager::standard()
        .run(&mut ctx)
        .unwrap_or_else(|e| panic!("compile failed: {e}"));
    ctx.parted.take().expect("pipeline ran")
}

/// Runs `netlist` for `cycles` on the evaluator, the LIR interpreter, and
/// the machine, asserting identical register trajectories and events.
fn assert_three_way_equivalence(netlist: &Netlist, cycles: u64, opts: &CompileOptions) {
    let out = compile(netlist, opts).unwrap_or_else(|e| panic!("compile failed: {e}"));
    let mut eval = Evaluator::new(&out.optimized);
    let mut interp = LirInterp::new(&out.lir);
    let mut machine = Machine::load(opts.config.clone(), &out.binary)
        .unwrap_or_else(|e| panic!("load failed: {e}"));

    for cycle in 0..cycles {
        let ev = eval.step();
        let iv = interp.step();
        let mv = machine
            .run_vcycles(1)
            .unwrap_or_else(|e| panic!("machine failed at cycle {cycle}: {e}"));

        assert_eq!(
            ev.displays, iv.displays,
            "interp display mismatch at {cycle}"
        );
        assert_eq!(
            ev.displays, mv.displays,
            "machine display mismatch at {cycle}"
        );
        assert_eq!(ev.finished, mv.finished, "finish mismatch at cycle {cycle}");

        for (ri, reg) in out.optimized.registers().iter().enumerate() {
            let expect = eval.reg_value(ri);
            let got_i = interp.rtl_reg_value(manticore_netlist::RegId(ri as u32), reg.width);
            assert_eq!(
                &got_i, expect,
                "interp reg `{}` mismatch at cycle {cycle}",
                reg.name
            );
            let loc = &out.metadata.reg_locations[ri];
            let words: Vec<u16> = loc
                .words
                .iter()
                .map(|&(core, mreg)| machine.read_reg(core, mreg))
                .collect();
            let got_m = Bits::from_words16(&words, reg.width);
            assert_eq!(
                &got_m, expect,
                "machine reg `{}` mismatch at cycle {cycle}",
                reg.name
            );
        }
        if ev.finished {
            break;
        }
    }
}

// ----------------------------------------------------------------------
// Netlist optimization
// ----------------------------------------------------------------------

#[test]
fn opt_folds_constants() {
    let mut b = NetlistBuilder::new("fold");
    let a = b.lit(3, 8);
    let c = b.lit(4, 8);
    let s = b.add(a, c); // folds to 7
    let r = b.reg("r", 8, 0);
    let next = b.add(r.q(), s);
    b.set_next(r, next);
    b.output("r", r.q());
    let n = b.finish_build().unwrap();
    let o = opt::optimize(&n);
    // add(3,4) folded: only the reg add remains.
    let adds = o.nets().iter().filter(|x| x.op.mnemonic() == "add").count();
    assert_eq!(adds, 1);
}

#[test]
fn opt_eliminates_dead_registers() {
    let mut b = NetlistBuilder::new("dead");
    // live counter observed by an output
    let live = b.reg("live", 8, 0);
    let one = b.lit(1, 8);
    let ln = b.add(live.q(), one);
    b.set_next(live, ln);
    b.output("live", live.q());
    // dead self-feeding register
    let dead = b.reg("dead", 8, 0);
    let dn = b.add(dead.q(), one);
    b.set_next(dead, dn);
    let n = b.finish_build().unwrap();
    let o = opt::optimize(&n);
    assert_eq!(o.registers().len(), 1);
    assert_eq!(o.registers()[0].name, "live");
}

#[test]
fn opt_cse_merges_duplicates() {
    let mut b = NetlistBuilder::new("cse");
    let r = b.reg("r", 8, 1);
    let x1 = b.mul(r.q(), r.q());
    let x2 = b.mul(r.q(), r.q()); // duplicate
    let s = b.xor(x1, x2); // becomes xor(x, x) -> 0 by algebraic rule
    let next = b.add(r.q(), s);
    b.set_next(r, next);
    b.output("r", r.q());
    let n = b.finish_build().unwrap();
    let o = opt::optimize(&n);
    let muls = o.nets().iter().filter(|x| x.op.mnemonic() == "mul").count();
    assert_eq!(muls, 0, "xor(x,x)=0 should kill both muls");
}

#[test]
fn opt_preserves_behaviour() {
    let n = random_netlist(123, 50);
    let o = opt::optimize(&n);
    let mut e1 = Evaluator::new(&n);
    let mut e2 = Evaluator::new(&o);
    // Compare via shared output names.
    for _ in 0..20 {
        e1.step();
        e2.step();
        for (name, _) in n.outputs() {
            assert_eq!(
                e1.output_value(name),
                e2.output_value(name),
                "output {name} diverged"
            );
        }
    }
}

// ----------------------------------------------------------------------
// End-to-end: simple designs
// ----------------------------------------------------------------------

#[test]
fn counter_16bit_end_to_end() {
    let mut b = NetlistBuilder::new("counter16");
    let r = b.reg("count", 16, 0);
    let one = b.lit(1, 16);
    let next = b.add(r.q(), one);
    b.set_next(r, next);
    b.output("count", r.q());
    let n = b.finish_build().unwrap();
    assert_three_way_equivalence(&n, 10, &options(2));
}

#[test]
fn counter_40bit_crosses_words() {
    let mut b = NetlistBuilder::new("counter40");
    let r = b.reg_init("count", 40, Bits::from_u64(0xffff_fff0, 40));
    let one = b.lit(1, 40);
    let next = b.add(r.q(), one);
    b.set_next(r, next);
    b.output("count", r.q());
    let n = b.finish_build().unwrap();
    // Crosses the 32-bit boundary during the run (carry chains).
    assert_three_way_equivalence(&n, 32, &options(2));
}

#[test]
fn finish_and_display_end_to_end() {
    let mut b = NetlistBuilder::new("fd");
    let r = b.reg("c", 16, 0);
    let one = b.lit(1, 16);
    let next = b.add(r.q(), one);
    b.set_next(r, next);
    let three = b.lit(3, 16);
    let is3 = b.eq(r.q(), three);
    b.display(is3, "c reached {}", &[r.q()]);
    let five = b.lit(5, 16);
    let done = b.eq(r.q(), five);
    b.finish(done);
    let n = b.finish_build().unwrap();
    assert_three_way_equivalence(&n, 20, &options(2));
}

#[test]
fn assertion_failure_propagates() {
    let mut b = NetlistBuilder::new("af");
    let r = b.reg("c", 8, 0);
    let one = b.lit(1, 8);
    let next = b.add(r.q(), one);
    b.set_next(r, next);
    let two = b.lit(2, 8);
    let ok = b.ne(r.q(), two);
    b.expect_true(ok, "c hit 2");
    let n = b.finish_build().unwrap();
    let opts = options(2);
    let out = compile(&n, &opts).unwrap();
    let mut machine = Machine::load(opts.config.clone(), &out.binary).unwrap();
    let err = machine.run_vcycles(10).unwrap_err();
    match err {
        manticore_machine::MachineError::AssertFailed { message, vcycle } => {
            assert_eq!(message, "c hit 2");
            assert_eq!(vcycle, 2);
        }
        other => panic!("unexpected error {other:?}"),
    }
}

#[test]
fn local_memory_end_to_end() {
    let mut b = NetlistBuilder::new("mem");
    let mem = b.memory("m", 16, 24);
    let addr = b.reg("addr", 4, 0);
    let one = b.lit(1, 4);
    let next = b.add(addr.q(), one);
    b.set_next(addr, next);
    // write (addr * 3 + 5) extended to 24 bits at addr
    let a24 = b.zext(addr.q(), 24);
    let three = b.lit(3, 24);
    let five = b.lit(5, 24);
    let t = b.mul(a24, three);
    let data = b.add(t, five);
    let en = b.lit(1, 1);
    b.mem_write(mem, addr.q(), data, en);
    // read back previous address into a register
    let prev = b.sub(addr.q(), one);
    let rd = b.mem_read(mem, prev);
    let sink = b.reg("sink", 24, 0);
    b.set_next(sink, rd);
    b.output("sink", sink.q());
    let n = b.finish_build().unwrap();
    assert_three_way_equivalence(&n, 24, &options(2));
}

#[test]
fn global_memory_end_to_end() {
    // A memory too large for the scratchpad goes to DRAM via the
    // privileged core with global stalls.
    let mut cfg = test_config(2);
    cfg.scratch_words = 64; // force global placement
    let opts = CompileOptions {
        config: cfg,
        ..Default::default()
    };
    let mut b = NetlistBuilder::new("gmem");
    let mem = b.memory("big", 128, 16);
    let addr = b.reg("addr", 7, 0);
    let one = b.lit(1, 7);
    let next = b.add(addr.q(), one);
    b.set_next(addr, next);
    let data = b.zext(addr.q(), 16);
    let en = b.lit(1, 1);
    b.mem_write(mem, addr.q(), data, en);
    let prev = b.sub(addr.q(), one);
    let rd = b.mem_read(mem, prev);
    let sink = b.reg("sink", 16, 0);
    b.set_next(sink, rd);
    b.output("sink", sink.q());
    let n = b.finish_build().unwrap();
    assert_three_way_equivalence(&n, 20, &opts);

    // And the machine must actually have stalled for the cache.
    let out = compile(&n, &opts).unwrap();
    let mut machine = Machine::load(opts.config.clone(), &out.binary).unwrap();
    machine.run_vcycles(10).unwrap();
    assert!(machine.counters().stall_cycles > 0);
    assert!(machine.cache_stats().hits + machine.cache_stats().misses > 0);
}

#[test]
fn wide_ops_end_to_end() {
    // Exercises sub, mul, compares, shifts, slices, concat on wide values.
    let mut b = NetlistBuilder::new("wide");
    let x = b.reg_init("x", 48, Bits::from_u64(0x0000_1234_5678, 48));
    let y = b.reg_init("y", 48, Bits::from_u64(0xffff_0000_0001, 48));
    let sum = b.add(x.q(), y.q());
    let diff = b.sub(x.q(), y.q());
    let prod = b.mul(x.q(), diff);
    b.set_next(x, sum);
    b.set_next(y, prod);
    let lt = b.ult(x.q(), y.q());
    let slt = b.slt(x.q(), y.q());
    let flag = b.reg("flag", 2, 0);
    let packed = b.concat(slt, lt);
    b.set_next(flag, packed);
    let sh_amount = b.slice(x.q(), 0, 6);
    let amt48 = b.zext(sh_amount, 48);
    let shifted = b.shr(y.q(), amt48);
    let z = b.reg("z", 48, 0);
    b.set_next(z, shifted);
    b.output("x", x.q());
    b.output("y", y.q());
    b.output("flag", flag.q());
    b.output("z", z.q());
    let n = b.finish_build().unwrap();
    assert_three_way_equivalence(&n, 16, &options(2));
}

/// Custom-function synthesis, summed over processes, on the nine
/// workloads at 15×15 and `soc` at 16×16 (the `table8_compile_times`
/// rows). The oracle suite holds the pass to its reference
/// implementation; these pins catch both drifting together.
#[test]
fn custom_function_stats_are_pinned() {
    let pins = [
        ("vta", 15, (5, 15, 1)),
        ("mc", 15, (387, 774, 291)),
        ("noc", 15, (800, 2752, 596)),
        ("mm", 15, (6, 17, 2)),
        ("rv32r", 15, (11, 42, 4)),
        ("cgra", 15, (2, 6, 1)),
        ("bc", 15, (396, 1422, 223)),
        ("blur", 15, (1, 3, 1)),
        ("jpeg", 15, (8, 16, 6)),
        ("soc", 16, (144, 407, 40)),
    ];
    for (name, grid, (fused, removed, tables)) in pins {
        let w = manticore_workloads::by_name(name).expect("known workload");
        let mut parted = cfu_input(&w.netlist, grid);
        let max_tables = MachineConfig::with_grid(grid, grid).num_custom_functions;
        let mut sum = CfuStats::default();
        for p in &mut parted.processes {
            let s = cfu::synthesize(p, max_tables);
            sum.fused += s.fused;
            sum.removed += s.removed;
            sum.tables += s.tables;
        }
        let want = CfuStats {
            fused,
            removed,
            tables,
        };
        assert_eq!(sum, want, "{name} @{grid}x{grid}");
    }
}

#[test]
fn custom_functions_preserve_semantics() {
    // A logic-heavy design: parity/mask network, the custom-function
    // synthesis target. Compare results with CFU on and off.
    let mut b = NetlistBuilder::new("logic");
    let r = b.reg_init("r", 32, Bits::from_u64(0xdeadbeef, 32));
    let s = b.reg_init("s", 32, Bits::from_u64(0x12345678, 32));
    let m1 = b.lit(0x0f0f_0f0f, 32);
    let m2 = b.lit(0x00ff_00ff, 32);
    let a = b.and(r.q(), m1);
    let o = b.or(s.q(), m2);
    let x = b.xor(a, o);
    let nx = b.not(x);
    let y = b.and(nx, s.q());
    let z = b.or(y, r.q());
    let w = b.xor(z, m1);
    b.set_next(r, w);
    let rot = b.rotr_const(r.q(), 7);
    let s2 = b.xor(rot, w);
    b.set_next(s, s2);
    b.output("r", r.q());
    b.output("s", s.q());
    let n = b.finish_build().unwrap();

    let with_cfu = options(2);
    let without_cfu = CompileOptions {
        custom_functions: false,
        ..options(2)
    };
    assert_three_way_equivalence(&n, 16, &with_cfu);
    assert_three_way_equivalence(&n, 16, &without_cfu);

    let out_with = compile(&n, &with_cfu).unwrap();
    let out_without = compile(&n, &without_cfu).unwrap();
    assert!(
        out_with.report.total_custom > 0,
        "synthesis should find fusable logic"
    );
    assert!(
        out_with.report.total_instructions < out_without.report.total_instructions,
        "custom functions should reduce instruction count"
    );
}

#[test]
fn lpt_partitioning_is_also_correct() {
    let n = random_netlist(7, 60);
    let opts = CompileOptions {
        partition: PartitionStrategy::Lpt,
        ..options(3)
    };
    assert_three_way_equivalence(&n, 12, &opts);
}

#[test]
fn partitioning_actually_spreads_work() {
    // Independent counters should land on multiple cores.
    let mut b = NetlistBuilder::new("par");
    for i in 0..8 {
        let r = b.reg(format!("c{i}"), 16, i);
        let k = b.lit(i + 1, 16);
        let next = b.add(r.q(), k);
        b.set_next(r, next);
        b.output(format!("c{i}"), r.q());
    }
    let n = b.finish_build().unwrap();
    let out = compile(&n, &options(3)).unwrap();
    assert!(
        out.report.cores_used > 1,
        "independent work should parallelize, used {}",
        out.report.cores_used
    );
    assert_three_way_equivalence(&n, 8, &options(3));
}

#[test]
fn report_is_populated() {
    let n = random_netlist(42, 40);
    let out = compile(&n, &options(2)).unwrap();
    assert!(out.report.vcpl > 0);
    assert!(out.report.total_instructions > 0);
    assert_eq!(out.report.passes.len(), 7);
    assert_eq!(
        out.report.passes.iter().map(|p| p.name).collect::<Vec<_>>(),
        [
            "netlist-opt",
            "lower",
            "lir-opt",
            "partition",
            "custom-functions",
            "schedule",
            "regalloc-emit"
        ]
    );
    assert_eq!(out.report.compile_threads, 1);
    assert!(out.report.split.vertices > 0);
    let (_, straggler) = out.report.straggler().unwrap();
    assert!(straggler.busy() > 0);
}

#[test]
fn parallel_pipeline_is_bit_identical_and_reports_threads() {
    // Parallel determinism in unit form: a compile fanned out over 2 or 4
    // workers must emit the bytes and the deterministic report
    // fingerprint of a one-thread compile. The cross-workload version
    // lives in tests/compile_determinism.rs; the comparison of each heavy
    // pass with its reference implementation is in `oracle.rs`.
    for seed in [7u64, 21, 42] {
        let n = random_netlist(seed, 60);
        let serial = compile(&n, &options(4)).unwrap();
        for threads in [2usize, 4] {
            let mut opts = options(4);
            opts.compile_threads = threads;
            let par = compile(&n, &opts).unwrap();
            assert_eq!(
                serial.binary.to_bytes(),
                par.binary.to_bytes(),
                "seed {seed}: binary differs at {threads} threads"
            );
            assert_eq!(
                serial.report.deterministic_fingerprint(),
                par.report.deterministic_fingerprint(),
                "seed {seed}: report fingerprint differs at {threads} threads"
            );
            assert_eq!(par.report.compile_threads, threads);
            assert!(
                par.report.passes.iter().any(|p| p.threads == threads),
                "parallel passes should report their thread count"
            );
        }
    }
}

#[test]
fn rejects_open_designs() {
    let mut b = NetlistBuilder::new("open");
    let i = b.input("stim", 8);
    let r = b.reg("r", 8, 0);
    b.set_next(r, i);
    let n = b.finish_build().unwrap();
    match compile(&n, &options(2)) {
        Err(crate::CompileError::UnsupportedInput { name }) => assert_eq!(name, "stim"),
        other => panic!("expected UnsupportedInput, got {other:?}"),
    }
}

// ----------------------------------------------------------------------
// Randomized differential testing
// ----------------------------------------------------------------------

/// Builds a random closed netlist: registers of mixed widths feeding a
/// random combinational expression pool, plus a small memory.
pub(crate) fn random_netlist(seed: u64, ops: usize) -> Netlist {
    let mut rng = SmallRng::seed_from_u64(seed);
    let widths = [7usize, 16, 20, 33];
    let mut b = NetlistBuilder::new("rand");

    // One register per width plus a 1-bit toggle.
    let mut pool: Vec<Vec<manticore_netlist::NetId>> = Vec::new();
    let mut regs = Vec::new();
    for (wi, &w) in widths.iter().enumerate() {
        let r = b.reg_init(format!("r{wi}"), w, Bits::from_u128(rng.next_u128(), w));
        regs.push(r);
        let c = b.constant(Bits::from_u128(rng.next_u128(), w));
        pool.push(vec![r.q(), c]);
    }

    // A small memory indexed by the low bits of r1.
    let mem = b.memory("m", 8, 16);
    let addr = b.slice(regs[1].q(), 0, 3);
    let rd = b.mem_read(mem, addr);
    pool[1].push(rd);

    for _ in 0..ops {
        let wi = rng.gen_range(0..widths.len());
        let w = widths[wi];
        let a = pool[wi][rng.gen_range(0..pool[wi].len())];
        let c = pool[wi][rng.gen_range(0..pool[wi].len())];
        let v = match rng.gen_range(0..13) {
            0 => b.add(a, c),
            1 => b.sub(a, c),
            2 => b.mul(a, c),
            3 => b.and(a, c),
            4 => b.or(a, c),
            5 => b.xor(a, c),
            6 => b.not(a),
            7 => {
                let e = b.eq(a, c);
                b.zext(e, w)
            }
            8 => {
                let u = b.ult(a, c);
                b.zext(u, w)
            }
            9 => {
                let s = b.slt(a, c);
                b.zext(s, w)
            }
            10 => {
                let sel = b.bit(a, rng.gen_range(0..w));
                b.mux(sel, a, c)
            }
            11 => {
                let amt_w = 6.min(w);
                let amt = b.slice(c, 0, amt_w);
                let amt_full = b.zext(amt, w);
                match rng.gen_range(0..3) {
                    0 => b.shl(a, amt_full),
                    1 => b.shr(a, amt_full),
                    _ => b.ashr(a, amt_full),
                }
            }
            _ => {
                let cut = rng.gen_range(1..w);
                let lo = b.slice(a, 0, cut);
                let hi = b.slice(c, cut, w - cut);
                b.concat(lo, hi)
            }
        };
        pool[wi].push(v);
    }

    // Registers take random next values from their width pool.
    for (wi, r) in regs.iter().enumerate() {
        let v = pool[wi][rng.gen_range(0..pool[wi].len())];
        b.set_next(*r, v);
    }
    // Memory write driven from the pools.
    let wdata = b.slice(pool[2][pool[2].len() - 1], 0, 16);
    let wen = b.bit(regs[0].q(), 0);
    b.mem_write(mem, addr, wdata, wen);

    // Outputs for opt-equivalence checks.
    for (wi, p) in pool.iter().enumerate() {
        b.output(format!("out{wi}"), *p.last().unwrap());
    }
    b.finish_build().unwrap()
}

#[test]
fn prop_random_designs_run_identically() {
    let mut rng = SmallRng::seed_from_u64(0x31);
    for _ in 0..12 {
        let seed = rng.next_u64();
        let ops = rng.gen_range(10..70);
        let n = random_netlist(seed, ops);
        assert_three_way_equivalence(&n, 8, &options(2));
    }
}

#[test]
fn prop_random_designs_on_bigger_grids() {
    let mut rng = SmallRng::seed_from_u64(0x32);
    for _ in 0..12 {
        let seed = rng.next_u64();
        let n = random_netlist(seed, 50);
        assert_three_way_equivalence(&n, 6, &options(4));
    }
}
