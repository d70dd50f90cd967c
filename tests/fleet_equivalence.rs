//! The fleet engine must be architecturally invisible: a job set run on a
//! fleet — any worker count, any submission order — yields bit-identical
//! per-job outcomes to running each job alone on a `ManticoreSim`, and
//! the outputs come back in submission order.
//!
//! This is the across-runs analog of `machine_engine_equivalence.rs`
//! (which pins the within-run engines): scheduling may only change *when*
//! a job runs, never *what* it computes.

use std::sync::Arc;
use std::time::{Duration, Instant};

use manticore::bits::Bits;
use manticore::fleet::{FleetJob, FleetSim};
use manticore::isa::MachineConfig;
use manticore::machine::Machine;
use manticore::util::SmallRng;
use manticore::workloads;
use manticore_fleet::{BatchPolicy, Fleet, JobOutput, SimJob};

const GRID: usize = 6;
const VCYCLES: u64 = 30;

/// Reads every RTL register back out of a machine using the compiler's
/// placement metadata (same probe as `machine_engine_equivalence`).
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

/// The engine-knob variants every job set cycles through. The second
/// field gives the job a far-future per-job deadline, which never fires
/// but makes the job non-gangable; the third is the replay knob.
fn variants() -> Vec<(&'static str, bool, bool)> {
    vec![
        ("uops", false, true),
        ("interp", false, false),
        ("deadline+uops", true, true),
        ("deadline+interp", true, false),
    ]
}

/// A deadline no test run comes near.
fn far_future() -> Instant {
    Instant::now() + Duration::from_secs(3600)
}

#[test]
fn fleet_jobs_are_bit_identical_to_alone_runs() {
    // Three workloads spanning the parallelism spectrum; bc additionally
    // gets distinct input vectors (its per-pipe nonce registers).
    for wname in ["mm", "bc", "noc"] {
        let w = workloads::by_name(wname).unwrap();
        let fleet = FleetSim::compile(&w.netlist, MachineConfig::with_grid(GRID, GRID), 4)
            .unwrap_or_else(|e| panic!("{wname}: fleet compile failed: {e}"));
        let output = Arc::clone(fleet.output());

        // The job set: every engine variant, and for bc also a poked
        // nonce per variant so inputs genuinely differ between jobs.
        let mut jobs: Vec<FleetJob> = Vec::new();
        let mut alone: Vec<manticore::ManticoreSim> = Vec::new();
        for (vi, (_, deadline, replay)) in variants().into_iter().enumerate() {
            let mut job = fleet.job(VCYCLES).replay(replay);
            let mut solo = manticore::ManticoreSim::from_output(
                output.clone(),
                fleet.program().config().clone(),
            )
            .unwrap();
            solo.set_replay(replay);
            if deadline {
                job = job.deadline(far_future());
            }
            if wname == "bc" {
                let nonce = (vi as u64 + 1) << 20;
                job = job.with_reg("nonce0", nonce).unwrap();
                assert!(solo.write_rtl_reg_by_name("nonce0", nonce));
            }
            jobs.push(job);
            alone.push(solo);
        }

        let runs = fleet.run_ganged(jobs, 1);
        assert_eq!(runs.len(), alone.len());
        for ((vi, run), solo) in runs.into_iter().enumerate().zip(alone.iter_mut()) {
            let what = format!("{wname} variant {vi}");
            assert_eq!(run.index, vi, "{what}: submission order broken");
            let solo_result = solo.run(VCYCLES);
            match (&run.result, &solo_result) {
                (Ok(f), Ok(s)) => {
                    assert_eq!(f.displays, s.displays, "{what}: displays diverged");
                    assert_eq!(f.finished, s.finished, "{what}: finish flag diverged");
                    assert_eq!(
                        f.vcycles_run, s.vcycles_run,
                        "{what}: vcycle count diverged"
                    );
                }
                (Err(f), Err(s)) => {
                    assert_eq!(format!("{f}"), format!("{s}"), "{what}: errors diverged");
                }
                (f, s) => panic!("{what}: outcome kind diverged: {f:?} vs {s:?}"),
            }
            assert_eq!(
                run.sim().machine().counters(),
                solo.machine().counters(),
                "{what}: PerfCounters diverged"
            );
            let f_regs = rtl_regs(run.sim().machine(), &output);
            let s_regs = rtl_regs(solo.machine(), &output);
            for (ri, reg) in output.optimized.registers().iter().enumerate() {
                assert_eq!(
                    f_regs[ri], s_regs[ri],
                    "{what}: register `{}` diverged",
                    reg.name
                );
            }
        }
    }
}

/// Builds the machine-level job set for the worker-count / submission
/// order sweeps: one shared program; job *i* gets variant `order[i]`'s
/// engine knobs and a Vcycle budget staggered by the variant index, so
/// the jobs are genuinely distinguishable in their outcomes.
fn machine_job_set(
    program: &Arc<manticore::machine::CompiledProgram>,
    order: &[usize],
) -> Vec<SimJob> {
    let variants = variants();
    order
        .iter()
        .map(|&i| {
            let (_, deadline, replay) = variants[i % variants.len()];
            // Distinct budgets (30, 31, 32, ...) make every job's final
            // state unique, so a mixed-up result slot cannot pass.
            let mut job =
                SimJob::new(program, VCYCLES + (i / variants.len()) as u64).replay(replay);
            if deadline {
                job = job.deadline(far_future());
            }
            job
        })
        .collect()
}

/// Fingerprints one job output: counters plus the full final register
/// file of every core (read through the flushed host view).
fn fingerprint(out: &JobOutput, regfile_size: usize, grid: usize) -> Vec<u64> {
    let mut fp = Vec::new();
    let c = out.machine().counters();
    fp.extend_from_slice(&[
        c.compute_cycles,
        c.vcycles,
        c.instructions,
        c.sends,
        c.messages_delivered,
        c.exceptions,
    ]);
    for y in 0..grid {
        for x in 0..grid {
            for r in 0..regfile_size {
                fp.push(out.machine().read_reg(
                    manticore::isa::CoreId::new(x as u8, y as u8),
                    manticore::isa::Reg(r as u16),
                ) as u64);
            }
        }
    }
    fp
}

#[test]
fn fleet_results_independent_of_worker_count_and_submission_order() {
    let w = workloads::by_name("mm").unwrap();
    let config = MachineConfig::with_grid(GRID, GRID);
    let options = manticore::compiler::CompileOptions {
        config: config.clone(),
        ..Default::default()
    };
    let out = manticore::compiler::compile(&w.netlist, &options).unwrap();
    let program =
        manticore::machine::CompiledProgram::compile_shared(config.clone(), &out.binary).unwrap();
    let rf = config.regfile_size;

    let n_jobs = 10;
    let natural: Vec<usize> = (0..n_jobs).collect();

    // Reference: one worker, natural order.
    let reference = Fleet::new(1).run_ganged_with(
        machine_job_set(&program, &natural),
        1,
        &BatchPolicy::default(),
    );
    let ref_fps: Vec<Vec<u64>> = reference.iter().map(|o| fingerprint(o, rf, GRID)).collect();
    for (i, o) in reference.iter().enumerate() {
        assert_eq!(o.index, i, "reference collection order");
        assert!(o.result.is_ok());
    }

    // Same set across worker counts: identical outputs, identical order.
    for workers in [2, 4] {
        let outputs = Fleet::new(workers).run_ganged_with(
            machine_job_set(&program, &natural),
            1,
            &BatchPolicy::default(),
        );
        for (i, o) in outputs.iter().enumerate() {
            assert_eq!(o.index, i, "{workers} workers: collection order");
            assert_eq!(
                fingerprint(o, rf, GRID),
                ref_fps[i],
                "{workers} workers: job {i} diverged from the 1-worker run"
            );
        }
    }

    // Shuffled submission: job *content* follows the shuffle, outputs
    // still arrive in (new) submission order, and each job's outcome is
    // bit-identical to the same job in the natural-order run.
    let mut rng = SmallRng::seed_from_u64(0xf1ee7);
    for round in 0..3u64 {
        let mut shuffled = natural.clone();
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.gen_range(0..i + 1));
        }
        let outputs = Fleet::new(3).run_ganged_with(
            machine_job_set(&program, &shuffled),
            1,
            &BatchPolicy::default(),
        );
        for (slot, o) in outputs.iter().enumerate() {
            assert_eq!(o.index, slot, "round {round}: collection order");
            assert_eq!(
                fingerprint(o, rf, GRID),
                ref_fps[shuffled[slot]],
                "round {round}: shuffled job at slot {slot} (= job {}) diverged",
                shuffled[slot]
            );
        }
    }
}

#[test]
fn resumed_job_pokes_land_before_the_first_resumed_vcycle() {
    // Regression: `SimJob::poke` on a *resumed* machine used to write
    // only the committed register word, so a write still in flight in the
    // pipeline ring from the previous segment would commit on top of the
    // poke and silently erase it — fresh jobs (whose rings are empty at
    // submission) never saw this. The contract is symmetric: a poke lands
    // before the first Vcycle of the segment, resumed or not.
    use manticore::isa::{AluOp, Binary, CoreId, CoreImage, Instruction, Reg};

    let binary = Binary {
        grid_width: 1,
        grid_height: 1,
        vcycle_len: 4,
        cores: vec![CoreImage {
            core: CoreId::new(0, 0),
            body: vec![Instruction::Alu {
                op: AluOp::Add,
                rd: Reg(1),
                rs1: Reg(1),
                rs2: Reg(2),
            }],
            epilogue_len: 0,
            custom_functions: vec![],
            init_regs: vec![(Reg(1), 0), (Reg(2), 1)],
            init_scratch: vec![],
        }],
        exceptions: vec![],
        init_dram: vec![],
    };
    // Pipeline exactly as deep as the Vcycle: every segment ends with
    // its last `r1` write still in the ring, which is the shape that
    // exposed the bug.
    let config = manticore::isa::MachineConfig {
        hazard_latency: 4,
        ..manticore::isa::MachineConfig::with_grid(1, 1)
    };
    let program = manticore::machine::CompiledProgram::compile_shared(config, &binary).unwrap();
    let core = CoreId::new(0, 0);
    let fleet = Fleet::new(2);

    // Segment 1: three Vcycles of counting. The Vcycle-3 increment (to 3)
    // is still in flight when the job returns.
    let first = fleet.run_ganged_with(
        vec![SimJob::new(&program, 3).strict_hazards(false)],
        1,
        &BatchPolicy::default(),
    );
    let machine = first.into_iter().next().unwrap().into_machine();
    assert_eq!(
        machine.read_reg(core, Reg(1)),
        3,
        "flushed view after segment 1"
    );

    // Segment 2: resume with a poke. The poke must override the in-flight
    // write too — the broken behavior committed the stale 3 over the 100
    // and finished at 7 instead of 104.
    let resumed = fleet.run_ganged_with(
        vec![SimJob::resume(machine, 4)
            .poke(core, Reg(1), 100)
            .strict_hazards(false)],
        1,
        &BatchPolicy::default(),
    );
    let resumed_r1 = resumed[0].machine().read_reg(core, Reg(1));

    // Reference: the same poke on a *fresh* job, run for the same number
    // of Vcycles — the semantics resumed jobs must match.
    let fresh = fleet.run_ganged_with(
        vec![SimJob::new(&program, 4)
            .poke(core, Reg(1), 100)
            .strict_hazards(false)],
        1,
        &BatchPolicy::default(),
    );
    let fresh_r1 = fresh[0].machine().read_reg(core, Reg(1));

    assert_eq!(fresh_r1, 104, "fresh-job poke semantics");
    assert_eq!(
        resumed_r1, fresh_r1,
        "a resumed job's pokes must land before its first Vcycle, like a fresh job's"
    );

    // Same contract through the gang fork path: pokes planted on forked
    // lanes override in-flight state from before the fork.
    let root = fleet.run_ganged_with(
        vec![SimJob::new(&program, 3).strict_hazards(false)],
        1,
        &BatchPolicy::default(),
    );
    let cp = root[0].machine().checkpoint();
    let mut gang = cp.fork(2).unwrap();
    gang.poke_reg(1, core, Reg(1), 100);
    gang.run_vcycles(4);
    let lanes = gang.into_machines();
    assert_eq!(
        lanes[0].read_reg(core, Reg(1)),
        7,
        "unpoked lane keeps counting"
    );
    assert_eq!(
        lanes[1].read_reg(core, Reg(1)),
        fresh_r1,
        "poked lane matches fresh-job semantics"
    );
}
