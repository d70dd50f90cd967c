//! The gang engine must be architecturally invisible: a K-lane lockstep
//! gang — one micro-op fetch per gang, lane-major machine state — yields
//! bit-identical per-lane outcomes to K solo `ManticoreSim` runs, across
//! lane counts and hazard strictness, with full
//! register-file fingerprints. A lane that faults mid-run parks with the
//! solo run's exact error and state while the surviving lanes finish
//! unchanged.
//!
//! This is the lane-level analog of `fleet_equivalence.rs` (which pins
//! job-level scheduling): lane batching may only change *how often* the
//! dispatch loop runs, never *what* any scenario computes.

use std::sync::Arc;

use manticore::bits::Bits;
use manticore::fleet::{FleetJob, FleetSim};
use manticore::isa::MachineConfig;
use manticore::machine::Machine;
use manticore::netlist::NetlistBuilder;
use manticore::workloads;

const GRID: usize = 6;
const VCYCLES: u64 = 25;

/// Full-state fingerprint: counters plus every register of every core
/// through the flushed host view (same probe as `fleet_equivalence`).
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
    for y in 0..grid {
        for x in 0..grid {
            for r in 0..regfile_size {
                fp.push(machine.read_reg(
                    manticore::isa::CoreId::new(x as u8, y as u8),
                    manticore::isa::Reg(r as u16),
                ) as u64);
            }
        }
    }
    fp
}

#[test]
fn gang_lanes_bit_identical_to_solo_runs() {
    // mm exercises dense compute, bc additionally gets a distinct input
    // vector per lane (its nonce register), so lanes genuinely diverge in
    // data while staying in lockstep.
    for wname in ["mm", "bc"] {
        let w = workloads::by_name(wname).unwrap();
        let config = MachineConfig::with_grid(GRID, GRID);
        let fleet = FleetSim::compile(&w.netlist, config.clone(), 2)
            .unwrap_or_else(|e| panic!("{wname}: compile failed: {e}"));
        let output = Arc::clone(fleet.output());
        let rf = config.regfile_size;

        for lanes in [1usize, 2, 8] {
            for strict in [true, false] {
                let what = format!("{wname} lanes {lanes} strict {strict}");

                // K identically-knobbed jobs (one gang) with per-lane
                // inputs, against K solo ManticoreSims.
                let mut jobs: Vec<FleetJob> = Vec::new();
                let mut solos: Vec<manticore::ManticoreSim> = Vec::new();
                for lane in 0..lanes {
                    let mut job = fleet.job(VCYCLES).strict_hazards(strict);
                    let mut solo = manticore::ManticoreSim::from_program(
                        Arc::clone(fleet.program()),
                        output.clone(),
                    );
                    solo.set_strict_hazards(strict);
                    if wname == "bc" {
                        let nonce = ((lane as u64) + 1) << 20;
                        job = job.with_reg("nonce0", nonce).unwrap();
                        assert!(solo.write_rtl_reg_by_name("nonce0", nonce));
                    }
                    jobs.push(job);
                    solos.push(solo);
                }

                let runs = fleet.run_ganged(jobs, lanes);
                assert_eq!(runs.len(), lanes, "{what}");
                for ((lane, run), solo) in runs.iter().enumerate().zip(solos.iter_mut()) {
                    assert_eq!(run.index, lane, "{what}: submission order");
                    let solo_result = solo.run(VCYCLES);
                    match (&run.result, &solo_result) {
                        (Ok(g), Ok(s)) => {
                            assert_eq!(g.displays, s.displays, "{what} lane {lane}: displays");
                            assert_eq!(g.finished, s.finished, "{what} lane {lane}: finish");
                            assert_eq!(g.vcycles_run, s.vcycles_run, "{what} lane {lane}: vcycles");
                        }
                        (Err(g), Err(s)) => {
                            assert_eq!(
                                format!("{g}"),
                                format!("{s}"),
                                "{what} lane {lane}: errors"
                            );
                        }
                        (g, s) => panic!("{what} lane {lane}: outcome kind: {g:?} vs {s:?}"),
                    }
                    assert_eq!(
                        fingerprint(run.sim().machine(), rf, GRID),
                        fingerprint(solo.machine(), rf, GRID),
                        "{what} lane {lane}: full-regfile fingerprint diverged"
                    );
                }
            }
        }
    }
}

/// A self-checking design whose assertion arms on a poked register: the
/// counter runs freely unless it reaches `trip`.
fn tripwire_netlist() -> manticore::netlist::Netlist {
    let mut b = NetlistBuilder::new("tripwire");
    let count = b.reg("count", 16, 0);
    let one = b.lit(1, 16);
    let next = b.add(count.q(), one);
    b.set_next(count, next);
    // `trip` holds its value; 0x7fff is far beyond any test budget.
    let trip = b.reg("trip", 16, 0x7fff);
    b.set_next(trip, trip.q());
    let hit = b.eq(count.q(), trip.q());
    let ok = b.not(hit);
    b.expect_true(ok, "tripwire hit");
    b.output("count", count.q());
    b.output("trip", trip.q());
    b.finish_build().unwrap()
}

#[test]
fn faulting_lane_is_masked_while_survivors_finish_unchanged() {
    let netlist = tripwire_netlist();
    let config = MachineConfig::with_grid(2, 2);
    let fleet = FleetSim::compile(&netlist, config.clone(), 2).unwrap();
    let rf = config.regfile_size;
    let lanes = 4usize;
    let tripped = 1usize; // lane 1 faults when the counter reaches 6

    let jobs: Vec<FleetJob> = (0..lanes)
        .map(|lane| {
            let job = fleet.job(VCYCLES);
            if lane == tripped {
                job.with_reg("trip", 6).unwrap()
            } else {
                job
            }
        })
        .collect();
    let runs = fleet.run_ganged(jobs, lanes);

    // The tripped lane reports the solo run's exact mid-run failure...
    let mut tripped_solo =
        manticore::ManticoreSim::from_program(Arc::clone(fleet.program()), fleet.output().clone());
    assert!(tripped_solo.write_rtl_reg_by_name("trip", 6));
    let solo_err = tripped_solo.run(VCYCLES).unwrap_err();
    match &runs[tripped].result {
        Err(e) => assert_eq!(format!("{e}"), format!("{solo_err}"), "tripped lane error"),
        Ok(o) => panic!("tripped lane should fault, ran {} vcycles", o.vcycles_run),
    }
    assert_eq!(
        fingerprint(runs[tripped].sim().machine(), rf, 2),
        fingerprint(tripped_solo.machine(), rf, 2),
        "tripped lane: state frozen at the solo abort point"
    );

    // ...while every surviving lane finishes bit-identical to a clean
    // solo run, as if the parked lane never existed.
    let mut clean =
        manticore::ManticoreSim::from_program(Arc::clone(fleet.program()), fleet.output().clone());
    clean.run(VCYCLES).unwrap();
    for (lane, run) in runs.iter().enumerate() {
        if lane == tripped {
            continue;
        }
        let outcome = run.result.as_ref().unwrap_or_else(|e| {
            panic!("surviving lane {lane} failed: {e}");
        });
        assert_eq!(outcome.vcycles_run, VCYCLES, "lane {lane}");
        assert_eq!(
            fingerprint(run.sim().machine(), rf, 2),
            fingerprint(clean.machine(), rf, 2),
            "surviving lane {lane} perturbed by the parked lane"
        );
    }
}

#[test]
fn wide_register_gang_pokes_mask_and_zero_extend_per_lane() {
    // The shared `rtl_reg_words` resolver behind `FleetJob::with_reg`
    // must give gangs the same wide-register semantics the solo path has:
    // out-of-width bits truncated, words past the u64 payload cleared.
    let mut b = NetlistBuilder::new("wide");
    let r40 = b.reg("r40", 40, 0);
    b.set_next(r40, r40.q());
    b.output("r40", r40.q());
    let r80 = b.reg("r80", 80, 0);
    b.set_next(r80, r80.q());
    b.output("r80", r80.q());
    let netlist = b.finish_build().unwrap();

    let fleet = FleetSim::compile(&netlist, MachineConfig::with_grid(2, 2), 2).unwrap();
    let lanes = 3usize;
    let jobs: Vec<FleetJob> = (0..lanes as u64)
        .map(|lane| {
            fleet
                .job(5)
                // 41 significant bits: bit 40 must be truncated away.
                .with_reg("r40", 0x1FF_FFFF_FF00 | lane)
                .unwrap()
                // Full u64 payload: r80's fifth word must stay zero.
                .with_reg("r80", u64::MAX - lane)
                .unwrap()
        })
        .collect();
    for (lane, run) in fleet.run_ganged(jobs, lanes).into_iter().enumerate() {
        run.result.as_ref().unwrap();
        let lane = lane as u64;
        assert_eq!(
            run.sim().read_rtl_reg_by_name("r40").unwrap().to_u64(),
            0xFF_FFFF_FF00 | lane,
            "lane {lane}: out-of-width bits must be truncated"
        );
        let r80 = run.sim().read_rtl_reg_by_name("r80").unwrap();
        assert_eq!(
            r80.to_u128(),
            (u64::MAX - lane) as u128,
            "lane {lane}: words past the u64 payload must be zero"
        );
        assert_eq!(r80, Bits::from_u128(u128::from(u64::MAX - lane), 80));
    }
}
