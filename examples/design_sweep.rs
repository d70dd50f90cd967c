//! Design sweep: compile one workload across grid sizes and both
//! *predict* (compiler VCPL, as Fig. 7 does) and *measure* (machine
//! model on the fleet engine, gang-batched) its scaling.
//!
//! Each grid size needs its own compilation — the schedule is a function
//! of the grid — but every simulation of the sweep runs as one batch on
//! the machine-level fleet, with `SCENARIOS` measurement replicas per
//! point. The batch goes through `Fleet::run_ganged_with`: replicas of one
//! point share a program, so each point's replicas execute as one
//! lockstep gang (one micro-op fetch per gang), while different points —
//! different programs — stay separate units that the work-stealing pool
//! runs concurrently. Results come back in submission order regardless
//! of which worker finished first, and the replicas double as a
//! determinism check: every lane of a point must agree bit for bit.
//!
//! Run with: `cargo run --release --example design_sweep [workload]`
//!
//! **Scenario-tree mode** (`cargo run --release --example design_sweep
//! [workload] tree`): sweeps the same grid sizes, but instead of fixed
//! measurement replicas each point runs a coverage-guided exploration —
//! checkpoint, fork into gangs of fuzzed children, keep the
//! coverage-raisers — and reports forked scenarios/sec and toggled bits
//! per grid, i.e. how fast each hardware point turns one simulation into
//! a tree of divergent ones.

use std::sync::Arc;
use std::time::Instant;

use manticore::compiler::{compile, CompileOptions};
use manticore::isa::MachineConfig;
use manticore::machine::CompiledProgram;
use manticore::workloads;
use manticore_fleet::{BatchPolicy, Fleet, SimJob};

const VCYCLES: u64 = 300;
/// Measurement replicas per sweep point — one gang per point.
const SCENARIOS: usize = 4;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "cgra".into());
    let w = workloads::by_name(&name)
        .unwrap_or_else(|| panic!("unknown workload `{name}` (try vta, mc, noc, mm, ...)"));

    println!("workload: {} ({} nets)", w.name, w.netlist.nets().len());

    if std::env::args().nth(2).as_deref() == Some("tree") {
        return tree_sweep(&w);
    }

    // --- Compile each grid size (the per-point part) -------------------
    struct Point {
        grid: usize,
        vcpl: u64,
        sends: u64,
        rate_khz: f64,
        program: Arc<CompiledProgram>,
    }
    let mut points: Vec<Point> = Vec::new();
    for grid in [1usize, 2, 3, 5, 7, 9, 12, 15] {
        let config = MachineConfig::with_grid(grid, grid);
        let options = CompileOptions {
            config: config.clone(),
            ..Default::default()
        };
        match compile(&w.netlist, &options) {
            Ok(out) => {
                let program = CompiledProgram::compile_shared(config.clone(), &out.binary)?;
                points.push(Point {
                    grid,
                    vcpl: out.report.vcpl,
                    sends: out.report.total_sends,
                    rate_khz: config.simulation_rate_khz(out.report.vcpl),
                    program,
                });
            }
            Err(e) => {
                // Small grids may not fit the design (instruction memory).
                println!("{:>6} cores: does not fit: {e}", grid * grid);
            }
        }
    }

    // --- Run every point as one gang-batched fleet batch ---------------
    let fleet = Fleet::new(4);
    let jobs: Vec<SimJob> = points
        .iter()
        .flat_map(|p| (0..SCENARIOS).map(|_| SimJob::new(&p.program, VCYCLES)))
        .collect();
    let t = Instant::now();
    let outputs = fleet.run_ganged_with(jobs, SCENARIOS, &BatchPolicy::default());
    let batch_secs = t.elapsed().as_secs_f64();

    println!(
        "{:>6} {:>8} {:>12} {:>10} {:>8} {:>14}",
        "cores", "VCPL", "rate (kHz)", "speedup", "sends", "instrs/vcycle"
    );
    let base_vcpl = points.first().map(|p| p.vcpl);
    for (pi, p) in points.iter().enumerate() {
        let gang = &outputs[pi * SCENARIOS..(pi + 1) * SCENARIOS];
        let first = gang[0].result.as_ref().expect("sweep point runs clean");
        assert_eq!(first.vcycles_run, VCYCLES);
        let counters = gang[0].machine().counters();
        // The replicas are identical scenarios: every lane of the gang
        // must land on the same counters (a live determinism check).
        for out in &gang[1..] {
            assert_eq!(out.machine().counters(), counters, "gang lanes diverged");
        }
        println!(
            "{:>6} {:>8} {:>12.1} {:>9.2}x {:>8} {:>14.1}",
            p.grid * p.grid,
            p.vcpl,
            p.rate_khz,
            base_vcpl.unwrap() as f64 / p.vcpl as f64,
            p.sends,
            counters.instructions as f64 / counters.vcycles as f64,
        );
    }
    println!(
        "\nmeasured {} sweep points x {SCENARIOS} gang lanes x {VCYCLES} vcycles \
         in {batch_secs:.3}s (one fleet batch, {} workers)",
        points.len(),
        fleet.workers()
    );
    Ok(())
}

/// Scenario-tree mode: per fitting grid point, a coverage-guided
/// exploration instead of fixed replicas.
fn tree_sweep(w: &workloads::Workload) -> Result<(), Box<dyn std::error::Error>> {
    use manticore::fleet::{BatchPolicy, ExploreConfig, FleetSim};

    let cfg = ExploreConfig {
        lanes: 8,
        rounds: 12,
        vcycles_per_round: 20,
        warmup_vcycles: 2,
        frontier_cap: 4,
        seed: 0,
        stimulus: Vec::new(),
    };
    println!(
        "{:>6} {:>10} {:>12} {:>13} {:>9} {:>7}",
        "cores", "scenarios", "scen/s", "covered bits", "displays", "faults"
    );
    for grid in [3usize, 5, 7, 9] {
        let fleet = match FleetSim::compile(&w.netlist, MachineConfig::with_grid(grid, grid), 4) {
            Ok(fleet) => fleet,
            Err(e) => {
                println!("{:>6} does not fit: {e}", grid * grid);
                continue;
            }
        };
        // Fuzz the design's first few architectural registers — a
        // workload-agnostic stimulus that still diverges the datapath.
        let names: Vec<&str> = fleet
            .output()
            .optimized
            .registers()
            .iter()
            .take(4)
            .map(|r| r.name.as_str())
            .collect();
        let t = Instant::now();
        let report = fleet.explore(&names, &cfg, &BatchPolicy::default())?;
        let secs = t.elapsed().as_secs_f64();
        println!(
            "{:>6} {:>10} {:>12.0} {:>13} {:>9} {:>7}",
            grid * grid,
            report.scenarios,
            report.scenarios as f64 / secs,
            report.covered_bits,
            report.displays,
            report.asserts + report.faults,
        );
    }
    Ok(())
}
