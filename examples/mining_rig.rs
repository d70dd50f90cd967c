//! Mining rig: the paper's `bc` benchmark as an actual *rig* — one
//! compiled miner design, many concurrent instances searching disjoint
//! nonce ranges on the fleet engine (compile-once / run-many) in
//! lane-batched gangs (fetch-once / run-K).
//!
//! The original version of this example compared one miner against the
//! Verilator-analog baseline the way Table 3 does; that comparison lives
//! on in `table3_performance`. Here the design is compiled **once**
//! (binary and micro-op program) and shared by every rig:
//! each job pokes its pipelines' `nonce*` registers to a different
//! starting range, and the fleet's work-stealing pool runs the rigs in
//! lockstep gangs of `lanes` — one micro-op fetch per gang instead of one
//! per rig — with results back in rig order regardless of scheduling.
//!
//! Run with: `cargo run --release --example mining_rig [rigs] [lanes]`
//!
//! **Scenario-tree mode** (`cargo run --release --example mining_rig
//! explore [lanes]`): instead of a fixed grid of disjoint ranges, the rig
//! *searches* nonce space as a coverage-guided tree — one warm miner is
//! checkpointed, forked into gangs of `lanes` children with fuzzed
//! `nonce*` registers, and the children that toggle new datapath bits
//! become the next generation's fork points. Same compiled program, same
//! fleet pool; the tree replaces the range plan.

use manticore::fleet::{BatchPolicy, ExploreConfig, FleetJob, FleetSim};
use manticore::isa::MachineConfig;
use manticore::workloads;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    if std::env::args().nth(1).as_deref() == Some("explore") {
        return explore();
    }
    let rigs: u64 = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("rigs must be a number"))
        .unwrap_or(8);
    let lanes: usize = std::env::args()
        .nth(2)
        .map(|a| a.parse().expect("lanes must be a number"))
        .unwrap_or(4);
    let cycles = 500;
    let pipes = 6; // bc() builds 6 hash pipelines

    let netlist = workloads::bc();
    let config = MachineConfig::default(); // 15×15 grid @ 475 MHz

    // --- Compile once --------------------------------------------------
    let t0 = Instant::now();
    let fleet = FleetSim::compile(&netlist, config, 4)?;
    let compile_secs = t0.elapsed().as_secs_f64();
    let report = &fleet.output().report;
    let rate_khz = fleet
        .program()
        .config()
        .simulation_rate_khz(fleet.program().vcycle_len());
    println!(
        "compiled bc once in {compile_secs:.2}s: VCPL {} over {} cores, \
         {rate_khz:.1} kHz predicted per instance",
        report.vcpl, report.cores_used
    );

    // --- Build the rig: disjoint nonce ranges per instance -------------
    let jobs: Result<Vec<FleetJob>, _> = (0..rigs)
        .map(|rig| {
            let mut job = fleet.job(cycles);
            for pipe in 0..pipes {
                // Each pipe of each rig starts a distinct 2^24 range.
                let start = (rig * pipes + pipe) << 24;
                job = job.with_reg(&format!("nonce{pipe}"), start)?;
            }
            Ok::<_, manticore::SimError>(job)
        })
        .collect();
    let jobs = jobs?;

    // --- Run the whole rig on the fleet, `lanes` rigs per gang ---------
    let t1 = Instant::now();
    let runs = fleet.run_ganged(jobs, lanes);
    let fleet_secs = t1.elapsed().as_secs_f64();

    println!(
        "\n{:>4} {:>12} {:>8} {:>14}",
        "rig", "nonce0 start", "shares", "csum"
    );
    let mut total_shares = 0usize;
    for run in &runs {
        let outcome = run.result.as_ref().expect("rig run succeeds");
        let csum = run.sim().read_rtl_reg_by_name("csum").unwrap().to_u64();
        total_shares += outcome.displays.len();
        println!(
            "{:>4} {:>12x} {:>8} {:>14x}",
            run.index,
            (run.index as u64 * pipes) << 24,
            outcome.displays.len(),
            csum
        );
    }

    let simulated = rigs * cycles;
    println!(
        "\n{rigs} rigs x {cycles} cycles in {fleet_secs:.3}s on {} workers \
         in gangs of {lanes} ({:.1} rig-kcycles/s), {total_shares} shares found",
        fleet.workers(),
        simulated as f64 / fleet_secs / 1e3,
    );
    println!(
        "compile amortized: once for the whole rig vs {rigs}x under \
         compile-per-instance ({:.2}s saved)",
        compile_secs * (rigs.saturating_sub(1)) as f64
    );
    Ok(())
}

/// Scenario-tree mode: checkpoint/fork exploration of nonce space.
fn explore() -> Result<(), Box<dyn std::error::Error>> {
    let lanes: usize = std::env::args()
        .nth(2)
        .map(|a| a.parse().expect("lanes must be a number"))
        .unwrap_or(16);

    let netlist = workloads::bc();
    let t0 = Instant::now();
    let fleet = FleetSim::compile(&netlist, MachineConfig::with_grid(6, 6), 4)?;
    println!(
        "compiled bc once in {:.2}s; exploring nonce space as a scenario tree",
        t0.elapsed().as_secs_f64()
    );

    // Fuzz every pipe's nonce counter; everything else (SHA state, the
    // round counter the design self-checks) evolves from the fork point.
    let stimulus: Vec<String> = (0..6).map(|p| format!("nonce{p}")).collect();
    let stimulus: Vec<&str> = stimulus.iter().map(String::as_str).collect();
    let cfg = ExploreConfig {
        lanes,
        rounds: 40,
        vcycles_per_round: 25,
        warmup_vcycles: 2,
        frontier_cap: 8,
        seed: 0,
        stimulus: Vec::new(),
    };

    let t1 = Instant::now();
    let report = fleet.explore(&stimulus, &cfg, &BatchPolicy::default())?;
    let secs = t1.elapsed().as_secs_f64();
    println!(
        "\n{} forked miners over {} rounds in {secs:.3}s \
         ({:.0} scenarios/s on {} workers)",
        report.scenarios,
        report.rounds_run,
        report.scenarios as f64 / secs,
        fleet.workers(),
    );
    println!(
        "coverage: {} register bits toggled, {} shares displayed, \
         {} asserts, {} faults, frontier peak {}",
        report.covered_bits, report.displays, report.asserts, report.faults, report.frontier_peak,
    );
    Ok(())
}
