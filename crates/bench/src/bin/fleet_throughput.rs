//! Fleet throughput: scenarios per second under compile-once / run-many
//! versus the sweep loop it replaces (compile + run per scenario,
//! sequentially), plus the gang engine's lane-batched rows.
//!
//! The job set is every workload × `--scenarios` instances, each instance
//! an independent simulation of the shared compiled program. The
//! **sequential baseline** executes the job set the way `design_sweep`
//! used to: for every scenario, compile the netlist, freeze the machine
//! program, run. The **fleet rows** compile and freeze once per workload,
//! then run the whole set on a work-stealing pool of 1 / 2 / 4 workers —
//! the one-time compilations are *included* in the fleet wall time, so
//! the speedup is end-to-end, not cherry-picked.
//!
//! The **gang rows** isolate the execution engine: per gang width and
//! workload, one shared compilation feeds the same scenario set (4 gangs'
//! worth) twice through the same 4-worker pool — once
//! one-machine-per-scenario (`FleetSim::run_ganged` at one lane), once
//! lane-batched (`FleetSim::run_ganged` at that width, one micro-op fetch
//! per gang). The `gang_vs_fleet` ratio is therefore a pure
//! dispatch-amortization measurement at equal worker count on the
//! micro-op engine. Each row also reports `gang_reg_words`, the words of
//! lane-row register state one gang of that width holds
//! (`GangMachine::reg_words`). The JSON's `gang_widths` holds one entry
//! per width. `scripts/bench_gate.py --fleet-*` gates the 8-lane geomean
//! two-sided, every other width's geomean as a one-sided floor and every
//! row's register words exactly against the committed `BENCH_fleet.json`.
//! The default sweep includes 5 and 9 lanes: those gangs run the 8- and
//! 16-wide kernels with padding lanes that never run.
//!
//! Run: `cargo run --release -p manticore-bench --bin fleet_throughput`
//!
//! Flags:
//! - `--json <path>` — write the measurements as JSON (same shape family
//!   as `table3_performance --json`; CI uploads it as an artifact);
//! - `--vcycles <n>` — per-scenario Vcycle budget (default 200);
//! - `--scenarios <n>` — instances per workload (default 6);
//! - `--grid <g>` — grid size to compile for (default 8);
//! - `--lanes <k,..>` — comma-separated gang widths for the gang-vs-fleet
//!   rows (default `2,4,5,8,9,16`; widths below 2 are skipped, so `0`
//!   skips the rows);
//! - `--gang-vcycles <n>` — per-scenario budget for the gang-vs-fleet
//!   rows (default 10000). Deliberately longer than `--vcycles`: the gang
//!   engine targets long-running scenario batches (mining, Monte Carlo,
//!   soak sweeps), so its rows are measured where execution rather than
//!   one-time machine boot dominates.

use std::sync::Arc;
use std::time::Instant;

use manticore::fleet::{FleetJob, FleetSim};
use manticore::isa::MachineConfig;
use manticore::prelude::GangMachine;
use manticore::workloads;
use manticore::ManticoreSim;
use manticore_bench::{fmt, json::Val, reject_unknown_args, row, take_flag};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let json_path = take_flag(&mut args, "--json");
    let parse = |v: Option<String>, flag: &str, default: u64| -> u64 {
        v.map(|v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("{flag} expects an integer, got {v}");
                std::process::exit(2);
            })
        })
        .unwrap_or(default)
    };
    let vcycles = parse(take_flag(&mut args, "--vcycles"), "--vcycles", 200);
    let scenarios = parse(take_flag(&mut args, "--scenarios"), "--scenarios", 6) as usize;
    let grid = parse(take_flag(&mut args, "--grid"), "--grid", 8) as usize;
    let widths: Vec<usize> = take_flag(&mut args, "--lanes")
        .unwrap_or_else(|| "2,4,5,8,9,16".into())
        .split(',')
        .map(|w| parse(Some(w.trim().to_string()), "--lanes", 0) as usize)
        .filter(|&w| w > 1)
        .collect();
    let gang_vcycles = parse(
        take_flag(&mut args, "--gang-vcycles"),
        "--gang-vcycles",
        10000,
    );
    reject_unknown_args(&args);

    let all = workloads::all();
    let total_jobs = all.len() * scenarios;
    println!(
        "# Fleet throughput: {} workloads x {scenarios} scenarios x {vcycles} vcycles \
         on a {grid}x{grid} grid\n",
        all.len()
    );

    // --- Sequential baseline: compile + run per scenario ---------------
    let config = MachineConfig::with_grid(grid, grid);
    let t = Instant::now();
    for w in &all {
        for _ in 0..scenarios {
            let mut sim = ManticoreSim::compile(&w.netlist, config.clone())
                .unwrap_or_else(|e| panic!("{}: compile failed: {e}", w.name));
            sim.run(vcycles)
                .unwrap_or_else(|e| panic!("{}: run failed: {e}", w.name));
        }
    }
    let seq_secs = t.elapsed().as_secs_f64();
    let seq_rate = total_jobs as f64 / seq_secs;

    row(&[
        "configuration".into(),
        "wall s".into(),
        "scenarios/s".into(),
        "speedup".into(),
    ]);
    println!("|---|---|---|---|");
    row(&[
        "sequential compile+run".into(),
        fmt(seq_secs),
        fmt(seq_rate),
        "1.00".into(),
    ]);

    // --- Fleet: compile once per workload, batch the scenarios ---------
    let mut json_rows: Vec<Val> = Vec::new();
    let mut speedup4 = 0.0f64;
    for workers in [1usize, 2, 4] {
        let t = Instant::now();
        let mut completed = 0usize;
        for w in &all {
            let fleet = FleetSim::compile(&w.netlist, config.clone(), workers)
                .unwrap_or_else(|e| panic!("{}: fleet compile failed: {e}", w.name));
            let jobs = (0..scenarios).map(|_| fleet.job(vcycles)).collect();
            for run in fleet.run_ganged(jobs, 1) {
                run.result
                    .as_ref()
                    .unwrap_or_else(|e| panic!("{}: fleet run failed: {e}", w.name));
                completed += 1;
            }
        }
        let secs = t.elapsed().as_secs_f64();
        assert_eq!(completed, total_jobs);
        let rate = total_jobs as f64 / secs;
        let speedup = seq_secs / secs;
        if workers == 4 {
            speedup4 = speedup;
        }
        row(&[
            format!("fleet({workers})"),
            fmt(secs),
            fmt(rate),
            fmt(speedup),
        ]);
        json_rows.push(Val::obj(vec![
            ("workers", Val::Int(workers as u64)),
            ("wall_seconds", Val::Num(secs)),
            ("scenarios_per_sec", Val::Num(rate)),
            ("speedup_vs_sequential", Val::Num(speedup)),
        ]));
    }

    println!(
        "\ncompile-once / run-many at 4 workers: {} the sequential sweep loop",
        fmt(speedup4)
    );

    // --- Gang vs fleet: same jobs, same pool, lane-batched dispatch ----
    let gang_workers = 4usize;
    let mut gang_widths: Vec<Val> = Vec::new();
    for &lanes in &widths {
        let gang_jobs = lanes * gang_workers;
        println!(
            "\n# Gang vs fleet: {gang_jobs} scenarios x {gang_vcycles} vcycles per workload, \
             {gang_workers} workers, gangs of {lanes} (uop engine, compile excluded)\n"
        );
        row(&[
            "workload".into(),
            "fleet scen/s".into(),
            "gang scen/s".into(),
            "gang/fleet".into(),
            "gang reg words".into(),
        ]);
        println!("|---|---|---|---|---|");
        let mut gang_rows: Vec<Val> = Vec::new();
        let mut log_sum = 0.0f64;
        for w in &all {
            let fleet = FleetSim::compile(&w.netlist, config.clone(), gang_workers)
                .unwrap_or_else(|e| panic!("{}: gang compile failed: {e}", w.name));
            let make_jobs =
                || -> Vec<FleetJob> { (0..gang_jobs).map(|_| fleet.job(gang_vcycles)).collect() };
            // Warm the shared program (validation schedule, page-in) so
            // neither side pays first-touch costs.
            for run in fleet.run_ganged(vec![fleet.job(vcycles)], 1) {
                run.result.as_ref().unwrap();
            }
            let t = Instant::now();
            for run in fleet.run_ganged(make_jobs(), 1) {
                run.result.as_ref().unwrap();
            }
            let fleet_secs = t.elapsed().as_secs_f64();
            let t = Instant::now();
            for run in fleet.run_ganged(make_jobs(), lanes) {
                run.result.as_ref().unwrap();
            }
            let gang_secs = t.elapsed().as_secs_f64();
            let fleet_rate = gang_jobs as f64 / fleet_secs;
            let gang_rate = gang_jobs as f64 / gang_secs;
            let ratio = gang_rate / fleet_rate;
            let reg_words =
                GangMachine::from_program(Arc::clone(fleet.program()), lanes).reg_words();
            log_sum += ratio.ln();
            row(&[
                w.name.to_string(),
                fmt(fleet_rate),
                fmt(gang_rate),
                fmt(ratio),
                reg_words.to_string(),
            ]);
            gang_rows.push(Val::obj(vec![
                ("name", Val::Str(w.name.to_string())),
                ("fleet_scenarios_per_sec", Val::Num(fleet_rate)),
                ("gang_scenarios_per_sec", Val::Num(gang_rate)),
                ("gang_vs_fleet", Val::Num(ratio)),
                ("gang_reg_words", Val::Int(reg_words as u64)),
            ]));
        }
        let geomean = (log_sum / all.len() as f64).exp();
        println!(
            "\ngang({lanes}) vs fleet at {gang_workers} workers: {} geomean scenarios/sec",
            fmt(geomean)
        );
        gang_widths.push(Val::obj(vec![
            ("workers", Val::Int(gang_workers as u64)),
            ("lanes", Val::Int(lanes as u64)),
            ("vcycles", Val::Int(gang_vcycles)),
            ("scenarios_per_workload", Val::Int(gang_jobs as u64)),
            ("rows", Val::Arr(gang_rows)),
            ("geomean_gang_vs_fleet", Val::Num(geomean)),
        ]));
    }

    if let Some(path) = json_path {
        let mut fields = vec![
            ("bench", Val::Str("fleet_throughput".into())),
            ("grid", Val::Int(grid as u64)),
            ("vcycles", Val::Int(vcycles)),
            ("scenarios_per_workload", Val::Int(scenarios as u64)),
            ("total_scenarios", Val::Int(total_jobs as u64)),
            (
                "sequential",
                Val::obj(vec![
                    ("wall_seconds", Val::Num(seq_secs)),
                    ("scenarios_per_sec", Val::Num(seq_rate)),
                ]),
            ),
            ("rows", Val::Arr(json_rows)),
        ];
        if !gang_widths.is_empty() {
            fields.push(("gang_widths", Val::Arr(gang_widths)));
        }
        let doc = Val::obj(fields);
        manticore_bench::json::write(&path, &doc);
        println!("\nwrote {path}");
    }
}
