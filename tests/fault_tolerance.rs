//! The differential fault-tolerance suite: under any seeded [`FaultPlan`]
//! — worker panics mid-batch, spurious machine faults, stalls — the fleet
//! must (1) return every output in submission order with no hung barrier,
//! (2) leave every *surviving* job bit-identical to the same job in a
//! clean run (injection may kill work, never corrupt it), and (3) report
//! the exact same outcome labels run after run, at any worker count.
//!
//! The matrix: mm/bc workloads × interpreter/micro-op engines × the three
//! execution planes (per-job fleet, lane-batched gangs, scenario-tree
//! exploration).

use std::sync::Arc;

use manticore::fleet::{ExploreConfig, FleetSim};
use manticore::isa::MachineConfig;
use manticore::workloads;
use manticore_fleet::{BatchPolicy, FaultPlan, Fleet, JobOutcome, JobOutput, SimJob};

const GRID: usize = 6;
const VCYCLES: u64 = 30;
const N_JOBS: usize = 8;

/// Compiles a workload to a shared program (the fleet-level entry the
/// machine-plane tests use).
fn compile(wname: &str) -> (Arc<manticore::machine::CompiledProgram>, usize) {
    let w = workloads::by_name(wname).unwrap();
    let config = MachineConfig::with_grid(GRID, GRID);
    let options = manticore::compiler::CompileOptions {
        config: config.clone(),
        ..Default::default()
    };
    let out = manticore::compiler::compile(&w.netlist, &options).unwrap();
    let program =
        manticore::machine::CompiledProgram::compile_shared(config.clone(), &out.binary).unwrap();
    (program, config.regfile_size)
}

/// The job set for one workload: jobs alternate the interpreter and the
/// micro-op replay engine so one batch covers the engine axis of the
/// matrix.
fn job_set(program: &Arc<manticore::machine::CompiledProgram>) -> Vec<SimJob> {
    (0..N_JOBS)
        .map(|i| SimJob::new(program, VCYCLES + (i / 2) as u64).replay(i % 2 == 1))
        .collect()
}

/// Counters plus the full final register file of every core — the same
/// probe `fleet_equivalence.rs` gates scheduling-independence with.
fn fingerprint(out: &JobOutput, regfile_size: usize) -> Vec<u64> {
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
    for y in 0..GRID {
        for x in 0..GRID {
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
fn injected_survivors_are_bit_identical_to_the_clean_run() {
    for wname in ["mm", "bc"] {
        let (program, rf) = compile(wname);
        let clean = Fleet::new(4).run_ganged_with(job_set(&program), 1, &BatchPolicy::default());
        let clean_fps: Vec<Vec<u64>> = clean.iter().map(|o| fingerprint(o, rf)).collect();
        for o in &clean {
            assert!(!o.outcome.is_failure(), "{wname}: clean run must not fault");
        }

        for seed in [1u64, 2, 3] {
            // A seeded mixture of panics, stalls, and spurious faults,
            // plus one guaranteed worker panic mid-batch.
            let policy = BatchPolicy {
                faults: FaultPlan::seeded(seed, N_JOBS, VCYCLES, 5).panic_at(2, 3),
                ..BatchPolicy::default()
            };
            let outputs = Fleet::new(4).run_ganged_with(job_set(&program), 1, &policy);
            assert_eq!(outputs.len(), N_JOBS, "{wname} seed {seed}: batch size");
            let mut panics = 0;
            for (i, out) in outputs.iter().enumerate() {
                assert_eq!(out.index, i, "{wname} seed {seed}: submission order broken");
                match out.outcome {
                    JobOutcome::WorkerPanic => {
                        panics += 1;
                        assert!(
                            out.result.is_err(),
                            "{wname} seed {seed}: panic must carry an error"
                        );
                    }
                    JobOutcome::Faulted => {
                        // The parked machine is still readable.
                        let _ = out.machine().counters();
                    }
                    _ => {
                        // A survivor — stalled or untouched — must be
                        // bit-identical to the clean run of the same job.
                        assert_eq!(
                            fingerprint(out, rf),
                            clean_fps[i],
                            "{wname} seed {seed}: surviving job {i} diverged from clean run"
                        );
                    }
                }
            }
            assert!(panics >= 1, "{wname} seed {seed}: the planted panic fired");

            // The outcome labels are a pure function of the plan: the
            // same plan at a different worker count reproduces them
            // exactly.
            let labels: Vec<JobOutcome> = outputs.iter().map(|o| o.outcome).collect();
            for workers in [1, 2] {
                let again = Fleet::new(workers).run_ganged_with(job_set(&program), 1, &policy);
                let again_labels: Vec<JobOutcome> = again.iter().map(|o| o.outcome).collect();
                assert_eq!(
                    labels, again_labels,
                    "{wname} seed {seed}: outcome labels changed at {workers} workers"
                );
            }
        }
    }
}

#[test]
fn gang_faults_park_one_lane_and_panics_kill_one_gang() {
    for wname in ["mm", "bc"] {
        let w = workloads::by_name(wname).unwrap();
        let fleet = FleetSim::compile(&w.netlist, MachineConfig::with_grid(GRID, GRID), 4)
            .unwrap_or_else(|e| panic!("{wname}: fleet compile failed: {e}"));
        let jobs = || -> Vec<manticore::fleet::FleetJob> {
            (0..N_JOBS)
                .map(|_| fleet.job(VCYCLES).replay(true))
                .collect()
        };

        // 8 compatible jobs at 4 lanes = two gangs: jobs 0..4 and 4..8.
        let clean = fleet.run_ganged(jobs(), 4);
        let clean_counters: Vec<_> = clean.iter().map(|r| r.sim().machine().counters()).collect();

        // Park lane 1 of the first gang; panic the worker running the
        // second gang (taking all four of its lanes down).
        let policy = BatchPolicy {
            faults: FaultPlan::none().error_at(1, 5).panic_at(5, 2),
            ..BatchPolicy::default()
        };
        let runs = fleet.run_ganged_with(jobs(), 4, &policy);
        assert_eq!(runs.len(), N_JOBS);
        for (i, run) in runs.iter().enumerate() {
            assert_eq!(run.index, i, "{wname}: submission order broken");
            match i {
                1 => {
                    assert_eq!(run.outcome, JobOutcome::Faulted, "{wname}: parked lane");
                    assert!(run.result.is_err());
                }
                4..=7 => {
                    assert_eq!(
                        run.outcome,
                        JobOutcome::WorkerPanic,
                        "{wname}: job {i} rode the panicked gang"
                    );
                }
                _ => {
                    // Lane-mates of the parked lane keep running and
                    // finish bit-identical to the clean gang.
                    assert_eq!(
                        run.sim().machine().counters(),
                        clean_counters[i],
                        "{wname}: surviving lane {i} diverged"
                    );
                }
            }
        }
    }
}

#[test]
fn explore_stays_deterministic_when_children_are_killed() {
    let lanes = 4usize;
    let w = workloads::by_name("mm").unwrap();
    let fleet = FleetSim::compile(&w.netlist, MachineConfig::with_grid(GRID, GRID), 4).unwrap();
    let stimulus: Vec<String> = (0..4)
        .flat_map(|c| [format!("ad_0_{c}"), format!("ps_0_{c}")])
        .collect();
    let stimulus: Vec<&str> = stimulus.iter().map(String::as_str).collect();
    let cfg = ExploreConfig {
        lanes,
        rounds: 5,
        vcycles_per_round: 10,
        warmup_vcycles: 2,
        frontier_cap: 2,
        seed: 0,
        stimulus: Vec::new(),
    };

    let clean = fleet
        .explore(&stimulus, &cfg, &BatchPolicy::default())
        .unwrap();
    assert_eq!(clean.killed, 0, "clean exploration kills nothing");

    // Child ordinals count round by round in frontier order: round 1 is
    // 0..lanes, round 2 starts at `lanes`. Panic the gang holding child 5
    // (first gang of round 2) and plant a spurious fault on child 9.
    let policy = BatchPolicy {
        faults: FaultPlan::none()
            .panic_at(5, 2)
            .error_at(9, 4)
            .stall_at(2, 1, 1),
        ..BatchPolicy::default()
    };
    let a = fleet.explore(&stimulus, &cfg, &policy).unwrap();
    let b = fleet.explore(&stimulus, &cfg, &policy).unwrap();

    assert_eq!(
        a.killed, lanes as u64,
        "exactly the panicked gang's lanes are killed"
    );
    assert!(
        a.scenarios < clean.scenarios,
        "killed children are not counted as explored"
    );
    // The tree under injection is itself exactly reproducible: same
    // scenario count, same coverage, same kills, same faults.
    assert_eq!(a.scenarios, b.scenarios, "scenario count reproduces");
    assert_eq!(a.covered_bits, b.covered_bits, "coverage reproduces");
    assert_eq!(a.killed, b.killed, "kill count reproduces");
    assert_eq!(a.faults, b.faults, "fault count reproduces");
    assert_eq!(a.rounds_run, b.rounds_run, "round count reproduces");
}
