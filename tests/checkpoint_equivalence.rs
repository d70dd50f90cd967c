//! Scenario-tree state movement must be architecturally invisible: a run
//! that is snapshotted mid-flight and continued from the restored
//! snapshot — on a fresh machine, or through a gang-lane round-trip
//! (`fork(1)` then `into_machines()`) — is bit-identical to the run that
//! was never interrupted, across every engine variant (interp / uops ×
//! strict / permissive) and all nine workloads.
//!
//! The harness is property-style: the snapshot Vcycle is drawn from a
//! local PRNG per (workload, variant), and the comparison is a full state
//! fingerprint — counters, every register of every core through the
//! flushed host view, an FNV hash of every scratchpad word, plus
//! displays / finish flags / errors from the resumed segment.
//!
//! This is the differential contract of the *Guaranteed Guess* pattern:
//! no state-movement path (checkpoint, restore, fork) is trusted until it
//! is pinned against a from-scratch run.

use std::sync::Arc;

use manticore::compiler::{compile, CompileOptions, CompileOutput};
use manticore::isa::{CacheConfig, CoreId, MachineConfig, Reg};
use manticore::machine::{
    load_checkpoint, save_checkpoint, Checkpoint, CompiledProgram, GangMachine, Machine,
    MachineError, PersistError, MAX_LANES,
};
use manticore::netlist::{Netlist, NetlistBuilder};
use manticore::util::SmallRng;
use manticore::workloads;

const GRID: usize = 6;
/// Total Vcycle budget each scenario runs to (split at a random point).
const VCYCLES: u64 = 24;

/// Full-state fingerprint: counters, every register of every core through
/// the flushed host view, and an FNV-1a hash of every scratchpad word.
fn fingerprint(machine: &Machine, regfile_size: usize, grid: usize) -> Vec<u64> {
    let mut fp = Vec::new();
    let c = machine.counters();
    fp.extend_from_slice(&[
        c.compute_cycles,
        c.stall_cycles,
        c.vcycles,
        c.instructions,
        c.sends,
        c.messages_delivered,
        c.exceptions,
    ]);
    let mut scratch_hash: u64 = 0xcbf29ce484222325;
    for y in 0..grid {
        for x in 0..grid {
            let core = CoreId::new(x as u8, y as u8);
            for r in 0..regfile_size {
                fp.push(machine.read_reg(core, Reg(r as u16)) as u64);
            }
            for &w in machine.core_scratch(core) {
                scratch_hash = (scratch_hash ^ w as u64).wrapping_mul(0x100000001b3);
            }
        }
    }
    fp.push(scratch_hash);
    fp
}

/// The full engine matrix: the interpreter and the micro-op replay
/// engine, each under strict and permissive hazards.
fn variants() -> Vec<(&'static str, bool, bool)> {
    vec![
        ("interp+strict", false, true),
        ("interp+permissive", false, false),
        ("uops+strict", true, true),
        ("uops+permissive", true, false),
    ]
}

/// Boots a machine with a variant's knobs, in the same order the fleet's
/// `SimJob::execute` applies them.
fn boot(program: &Arc<CompiledProgram>, replay: bool, strict: bool) -> Machine {
    let mut m = Machine::from_program(Arc::clone(program));
    m.set_strict_hazards(strict);
    m.set_replay(replay);
    m
}

fn compile_workload(name: &str) -> (CompileOutput, Arc<CompiledProgram>) {
    let w = workloads::by_name(name).unwrap();
    let config = MachineConfig::with_grid(GRID, GRID);
    let options = CompileOptions {
        config: config.clone(),
        ..Default::default()
    };
    let out = compile(&w.netlist, &options).unwrap_or_else(|e| panic!("{name}: compile: {e}"));
    let program = CompiledProgram::compile_shared(config, &out.binary)
        .unwrap_or_else(|e| panic!("{name}: load: {e}"));
    (out, program)
}

#[test]
fn restored_and_forked_runs_are_bit_identical_to_uninterrupted_runs() {
    let rf = MachineConfig::with_grid(GRID, GRID).regfile_size;
    for w in workloads::all() {
        let (_, program) = compile_workload(w.name);
        for (vname, replay, strict) in variants() {
            let what = format!("{} {vname}", w.name);
            // Property-style split point: random per (workload, variant),
            // strictly inside the run so the snapshot is genuinely
            // mid-flight (after at least the validation Vcycle).
            let mut rng = SmallRng::seed_from_u64(
                w.name.bytes().fold(0xc0ffee_u64, |h, b| h * 131 + b as u64) ^ vname.len() as u64,
            );
            let split = 1 + rng.gen_range(0..(VCYCLES as usize - 1)) as u64;

            // The uninterrupted reference: run to the split, snapshot,
            // keep going on the same machine.
            let mut original = boot(&program, replay, strict);
            original
                .run_vcycles(split)
                .unwrap_or_else(|e| panic!("{what}: first segment: {e}"));
            let cp = original.checkpoint();
            assert_eq!(cp.vcycles(), split, "{what}: checkpoint vcycle");
            assert_eq!(cp.identity(), program.identity(), "{what}: identity");
            let tail = original.run_vcycles(VCYCLES - split);
            let original_fp = fingerprint(&original, rf, GRID);

            // Path 1: restore onto a fresh machine (deliberately booted
            // with *different* knobs — restore must carry the snapshot's).
            let mut restored = Machine::from_program(Arc::clone(&program));
            restored.restore(&cp).unwrap();
            let restored_tail = restored.run_vcycles(VCYCLES - split);
            match (&tail, &restored_tail) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.displays, b.displays, "{what}: restored displays");
                    assert_eq!(a.finished, b.finished, "{what}: restored finish");
                    assert_eq!(a.vcycles_run, b.vcycles_run, "{what}: restored vcycles");
                }
                (Err(a), Err(b)) => assert_eq!(format!("{a}"), format!("{b}"), "{what}"),
                (a, b) => panic!("{what}: outcome kind diverged: {a:?} vs {b:?}"),
            }
            assert_eq!(
                fingerprint(&restored, rf, GRID),
                original_fp,
                "{what}: restored run diverged from the uninterrupted run"
            );

            // Path 2: gang-lane round-trip — fork(1), resume as a gang,
            // transpose back out.
            let mut gang = cp.fork(1).unwrap();
            let gang_tail = gang.run_vcycles(VCYCLES - split).remove(0);
            let lane = gang.into_machines().remove(0);
            match (&tail, &gang_tail) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.displays, b.displays, "{what}: forked displays");
                    assert_eq!(a.finished, b.finished, "{what}: forked finish");
                    assert_eq!(a.vcycles_run, b.vcycles_run, "{what}: forked vcycles");
                }
                (Err(a), Err(b)) => assert_eq!(format!("{a}"), format!("{b}"), "{what}"),
                (a, b) => panic!("{what}: gang outcome kind diverged: {a:?} vs {b:?}"),
            }
            assert_eq!(
                fingerprint(&lane, rf, GRID),
                original_fp,
                "{what}: gang-lane round-trip diverged from the uninterrupted run"
            );
        }
    }
}

/// Resolves the first machine word of RTL register `name` (enough to
/// plant distinct 16-bit stimulus per scenario).
fn first_word_of(out: &CompileOutput, name: &str) -> (CoreId, Reg) {
    let ri = out
        .optimized
        .registers()
        .iter()
        .position(|r| r.name == name)
        .unwrap_or_else(|| panic!("register `{name}` not in the optimized design"));
    out.metadata.reg_locations[ri].words[0]
}

#[test]
fn forked_children_match_solo_runs_given_the_same_mid_run_pokes() {
    // The gang-vs-solo contract of `gang_equivalence.rs`, extended to
    // mid-flight entry: fork K children with distinct pokes at the fork
    // point; each must be bit-identical to a solo machine restored from
    // the same checkpoint that received the same pokes before resuming.
    let (out, program) = compile_workload("bc");
    let rf = program.config().regfile_size;
    let (nonce_core, nonce_reg) = first_word_of(&out, "nonce0");
    let lanes = 4usize;
    let split = 7u64;

    for (vname, replay, strict) in variants() {
        let what = format!("bc fork {vname}");
        let mut root = boot(&program, replay, strict);
        root.run_vcycles(split)
            .unwrap_or_else(|e| panic!("{what}: warmup: {e}"));
        let cp = root.checkpoint();

        let mut gang = cp.fork(lanes).unwrap();
        for lane in 0..lanes {
            gang.poke_reg(lane, nonce_core, nonce_reg, 0x1000 + lane as u16);
        }
        let results = gang.run_vcycles(VCYCLES - split);
        let machines = gang.into_machines();

        for lane in 0..lanes {
            let mut solo = Machine::from_program(Arc::clone(&program));
            solo.restore(&cp).unwrap();
            solo.poke_reg(nonce_core, nonce_reg, 0x1000 + lane as u16);
            let solo_result = solo.run_vcycles(VCYCLES - split);
            match (&results[lane], &solo_result) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.displays, b.displays, "{what} lane {lane}: displays");
                    assert_eq!(a.finished, b.finished, "{what} lane {lane}: finish");
                    assert_eq!(a.vcycles_run, b.vcycles_run, "{what} lane {lane}: vcycles");
                }
                (Err(a), Err(b)) => {
                    assert_eq!(format!("{a}"), format!("{b}"), "{what} lane {lane}")
                }
                (a, b) => panic!("{what} lane {lane}: outcome kind: {a:?} vs {b:?}"),
            }
            assert_eq!(
                fingerprint(&machines[lane], rf, GRID),
                fingerprint(&solo, rf, GRID),
                "{what} lane {lane}: forked child diverged from the solo resumed run"
            );
        }
    }
}

#[test]
fn restore_onto_a_different_program_is_a_typed_error_with_no_mutation() {
    // Two compilations of the *same* netlist are still distinct programs
    // (their tapes could legitimately differ); a snapshot from one must
    // not apply to a machine of the other — and must leave it untouched.
    let (_, program_a) = compile_workload("mm");
    let (_, program_b) = compile_workload("mm");
    assert_ne!(program_a.identity(), program_b.identity());
    let rf = program_a.config().regfile_size;

    let mut machine_a = Machine::from_program(Arc::clone(&program_a));
    machine_a.run_vcycles(5).unwrap();
    let cp = machine_a.checkpoint();

    let mut machine_b = Machine::from_program(Arc::clone(&program_b));
    machine_b.run_vcycles(3).unwrap();
    let before = fingerprint(&machine_b, rf, GRID);
    match machine_b.restore(&cp) {
        Err(MachineError::CheckpointMismatch { expected, got }) => {
            assert_eq!(expected, program_a.identity());
            assert_eq!(got, program_b.identity());
        }
        other => panic!("expected CheckpointMismatch, got {other:?}"),
    }
    assert_eq!(
        fingerprint(&machine_b, rf, GRID),
        before,
        "a refused restore must not mutate any state"
    );
    // The same key guards the fork path.
    machine_b.run_vcycles(2).unwrap();
    assert_eq!(machine_b.counters().vcycles, 5, "machine still runs fine");
}

/// A self-checking design whose assertion arms on a poked register (same
/// shape as `gang_equivalence.rs`): the counter runs freely unless it
/// reaches `trip`.
fn tripwire() -> (CompileOutput, Arc<CompiledProgram>) {
    let mut b = manticore::netlist::NetlistBuilder::new("tripwire");
    let count = b.reg("count", 16, 0);
    let one = b.lit(1, 16);
    let next = b.add(count.q(), one);
    b.set_next(count, next);
    let trip = b.reg("trip", 16, 0x7fff);
    b.set_next(trip, trip.q());
    let hit = b.eq(count.q(), trip.q());
    let ok = b.not(hit);
    b.expect_true(ok, "tripwire hit");
    b.output("count", count.q());
    let netlist = b.finish_build().unwrap();
    let config = MachineConfig::with_grid(2, 2);
    let options = CompileOptions {
        config: config.clone(),
        ..Default::default()
    };
    let out = compile(&netlist, &options).unwrap();
    let program = CompiledProgram::compile_shared(config, &out.binary).unwrap();
    (out, program)
}

#[test]
fn snapshot_of_a_faulted_lane_restores_as_parked_with_the_identical_error() {
    let (out, program) = tripwire();
    let rf = program.config().regfile_size;
    let (trip_core, trip_reg) = first_word_of(&out, "trip");

    // Solo reference: the exact error and abort-point state.
    let mut solo = Machine::from_program(Arc::clone(&program));
    solo.poke_reg(trip_core, trip_reg, 6);
    let solo_err = solo.run_vcycles(VCYCLES).unwrap_err();
    let solo_fp = fingerprint(&solo, rf, 2);

    // A gang where lane 1 trips mid-run.
    let mut gang = GangMachine::from_program(Arc::clone(&program), 2);
    gang.poke_reg(1, trip_core, trip_reg, 6);
    let results = gang.run_vcycles(VCYCLES);
    assert!(results[0].is_ok(), "lane 0 survives");
    assert!(results[1].is_err(), "lane 1 trips");

    // The parked lane's snapshot carries the fault...
    let cp = gang.checkpoint_lane(1);
    assert_eq!(
        format!(
            "{}",
            cp.fault().expect("parked lane snapshots carry their fault")
        ),
        format!("{solo_err}"),
        "snapshot fault"
    );
    // ...its state is the abort point...
    assert_eq!(fingerprint(&cp.boot(), rf, 2), solo_fp, "snapshot state");

    // ...and forking it reproduces lanes parked with the identical error:
    // no further execution, state still frozen.
    let mut forked = cp.fork(2).unwrap();
    for (lane, result) in forked.run_vcycles(10).iter().enumerate() {
        match result {
            Err(e) => assert_eq!(format!("{e}"), format!("{solo_err}"), "lane {lane}"),
            Ok(o) => panic!("forked lane {lane} of a faulted snapshot ran {o:?}"),
        }
    }
    for (lane, machine) in forked.into_machines().into_iter().enumerate() {
        assert_eq!(
            fingerprint(&machine, rf, 2),
            solo_fp,
            "forked lane {lane}: state must stay frozen at the abort point"
        );
    }
}

#[test]
fn fork_width_is_validated_not_clamped() {
    let (_, program) = compile_workload("mm");
    let mut root = Machine::from_program(Arc::clone(&program));
    root.run_vcycles(2).unwrap();
    let cp = root.checkpoint();
    for bad in [0usize, MAX_LANES + 1, MAX_LANES * 4] {
        match cp.fork(bad) {
            Err(MachineError::ForkWidth { requested }) => assert_eq!(requested, bad),
            other => panic!("fork({bad}): expected ForkWidth, got {other:?}"),
        }
    }
    // The boundary widths are fine.
    assert_eq!(cp.fork(1).unwrap().lanes(), 1);
    assert_eq!(cp.fork(MAX_LANES).unwrap().lanes(), MAX_LANES);
}

#[test]
fn checkpoints_survive_their_source_machine() {
    // A checkpoint owns its state: dropping the machine (or mutating it
    // further) must not disturb snapshots already taken.
    let (_, program) = compile_workload("noc");
    let rf = program.config().regfile_size;
    let cp: Checkpoint;
    {
        let mut m = Machine::from_program(Arc::clone(&program));
        m.run_vcycles(4).unwrap();
        cp = m.checkpoint();
        m.run_vcycles(10).unwrap(); // mutate after snapshotting
    }
    let resumed = cp.boot();
    assert_eq!(resumed.counters().vcycles, 4);
    let mut replayed = Machine::from_program(Arc::clone(&program));
    replayed.run_vcycles(4).unwrap();
    assert_eq!(
        fingerprint(&resumed, rf, GRID),
        fingerprint(&replayed, rf, GRID),
        "snapshot must be an independent copy of the state at Vcycle 4"
    );
}

/// The design behind `fixtures/counter_2x2_sharded.mckp`: a 16-bit counter
/// feeding a 32-bit accumulator, with a periodic `$display` and a
/// `$finish`. On a 2x2 grid it spreads over two cores, so the snapshot
/// carries NoC traffic, host exceptions and cache stalls.
fn legacy_fixture_design() -> Netlist {
    let mut b = NetlistBuilder::new("counter");
    let count = b.reg("count", 16, 0);
    let acc = b.reg("acc", 32, 1);
    let one = b.lit(1, 16);
    let next = b.add(count.q(), one);
    b.set_next(count, next);
    let three = b.lit(3, 32);
    let scaled = b.mul(acc.q(), three);
    let zero = b.lit(0, 16);
    let wide = b.concat(zero, count.q());
    let acc_next = b.add(scaled, wide);
    b.set_next(acc, acc_next);
    let seven = b.lit(7, 16);
    let low = b.and(count.q(), seven);
    let tick = b.eq(low, zero);
    b.display(tick, "count = {} acc = {}", &[count.q(), acc.q()]);
    let limit = b.lit(40, 16);
    let done = b.eq(count.q(), limit);
    b.finish(done);
    b.finish_build().expect("fixture design is well-formed")
}

#[test]
fn checkpoint_saved_under_the_retired_sharded_engine_resumes_bit_identically() {
    // The fixture is a durable checkpoint taken after 13 Vcycles by a build
    // that still had the sharded grid engine, while running it at 2 shards:
    // its exec-mode tag is 1, followed by the shard count. Small register
    // file, scratchpad and cache keep the committed bytes small.
    const FIXTURE: &[u8] = include_bytes!("fixtures/counter_2x2_sharded.mckp");
    const SPLIT: u64 = 13;
    let grid = 2;
    let config = MachineConfig {
        regfile_size: 256,
        scratch_words: 64,
        cache: CacheConfig {
            capacity_words: 256,
            ..CacheConfig::default()
        },
        ..MachineConfig::with_grid(grid, grid)
    };
    let options = CompileOptions {
        config: config.clone(),
        ..Default::default()
    };
    let out = compile(&legacy_fixture_design(), &options).expect("compile");
    let program = CompiledProgram::compile_shared(config.clone(), &out.binary).expect("load");

    let cp = load_checkpoint(FIXTURE, &program).expect("legacy checkpoint must still load");
    assert_eq!(cp.vcycles(), SPLIT);
    // Re-saving writes the serial tag with no shard count: exactly the
    // 8-byte count shorter, which also proves the fixture carried tag 1.
    assert_eq!(save_checkpoint(&cp).len() + 8, FIXTURE.len());

    let mut resumed = Machine::from_program(Arc::clone(&program));
    resumed.restore(&cp).unwrap();
    let tail = resumed.run_vcycles(1000).expect("resumed run");

    let mut reference = Machine::from_program(Arc::clone(&program));
    reference.run_vcycles(SPLIT).expect("reference head");
    let ref_tail = reference.run_vcycles(1000).expect("reference tail");

    assert!(tail.finished, "the resumed run must reach $finish");
    assert_eq!(tail.vcycles_run, ref_tail.vcycles_run);
    assert_eq!(tail.displays, ref_tail.displays);
    assert_eq!(
        tail.displays,
        [
            "count = 10 acc = 3350d09",
            "count = 18 acc = 32a3e70d",
            "count = 20 acc = daa5ce11",
            "count = 28 acc = b367e215",
        ]
    );
    assert_eq!(resumed.counters(), reference.counters());
    assert_eq!(
        fingerprint(&resumed, config.regfile_size, grid),
        fingerprint(&reference, config.regfile_size, grid),
        "resumed legacy checkpoint diverged from the uninterrupted run"
    );
}

#[test]
fn checkpoint_saved_under_the_retired_tape_engine_resumes_bit_identically() {
    // Builds that still had the tape replay engine wrote its tag, 0, into
    // the replay-engine byte; this build writes 1 and ignores the value on
    // load. Patch a fresh blob's byte to 0 (re-sealing the checksum) and
    // the snapshot must load and resume like an uninterrupted interpreter
    // run, while any other tag stays corrupt.
    const SPLIT: u64 = 13;
    let grid = 2;
    let config = MachineConfig {
        regfile_size: 256,
        scratch_words: 64,
        ..MachineConfig::with_grid(grid, grid)
    };
    let options = CompileOptions {
        config: config.clone(),
        ..Default::default()
    };
    let out = compile(&legacy_fixture_design(), &options).expect("compile");
    let program = CompiledProgram::compile_shared(config.clone(), &out.binary).expect("load");

    let mut source = Machine::from_program(Arc::clone(&program));
    source.run_vcycles(SPLIT).expect("head");
    let bytes = save_checkpoint(&source.checkpoint());
    // A clean snapshot ends `.. engine tag, tape_invalidated, fault tag 0`
    // and the 8-byte checksum trailer.
    let tag_at = bytes.len() - 8 - 3;
    assert_eq!(bytes[tag_at], 1, "this build writes engine tag 1");
    let with_tag = |tag: u8| {
        let mut b = bytes.clone();
        b[tag_at] = tag;
        let body = b.len() - 8;
        let sum = manticore::util::fnv1a(&b[..body]);
        b[body..].copy_from_slice(&sum.to_le_bytes());
        b
    };

    let cp = load_checkpoint(&with_tag(0), &program).expect("tape-era checkpoint must load");
    assert_eq!(save_checkpoint(&cp), bytes, "re-saving writes tag 1");
    let mut resumed = Machine::from_program(Arc::clone(&program));
    resumed.restore(&cp).unwrap();
    let tail = resumed.run_vcycles(1000).expect("resumed run");

    let mut reference = Machine::from_program(Arc::clone(&program));
    reference.set_replay(false);
    reference.run_vcycles(SPLIT).expect("reference head");
    let ref_tail = reference.run_vcycles(1000).expect("reference tail");
    assert!(tail.finished, "the resumed run must reach $finish");
    assert_eq!(tail.vcycles_run, ref_tail.vcycles_run);
    assert_eq!(tail.displays, ref_tail.displays);
    assert_eq!(resumed.counters(), reference.counters());
    assert_eq!(
        fingerprint(&resumed, config.regfile_size, grid),
        fingerprint(&reference, config.regfile_size, grid),
        "resumed tape-era checkpoint diverged from the interpreter"
    );

    match load_checkpoint(&with_tag(2), &program) {
        Err(PersistError::Corrupt { detail }) => {
            assert!(detail.contains("replay-engine tag 2"), "{detail}");
        }
        other => panic!("engine tag 2 must be corrupt, got {other:?}"),
    }
}
