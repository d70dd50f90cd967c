//! Exploration throughput: forked scenarios per second under
//! coverage-guided scenario-tree exploration ([`FleetSim::explore`]).
//!
//! Per workload, one shared compilation seeds a scenario tree: the root
//! runs a short warm-up, then every round checkpoints the frontier, forks
//! each checkpoint into a `--lanes`-wide gang with fuzzed stimulus, runs
//! the gangs across the worker pool, and keeps coverage-raising children
//! (capped at `--frontier`) as the next frontier. The headline number is
//! forked scenarios per second — the rate at which checkpoint/fork/resume
//! turns one simulation into thousands of divergent ones — which is what
//! the default geometry is sized for: `1 + (rounds-1) × frontier` gangs
//! of `lanes`, > 10⁴ scenarios per workload, while memory stays flat
//! (the live set is never more than `frontier` checkpoints plus one
//! round of gangs).
//!
//! Exploration is deterministic for a fixed seed (stimulus is drawn
//! serially in submission order, results merged in submission order), so
//! the per-workload `scenarios` and `covered_bits` columns are exact
//! across runs and machines — `scripts/bench_gate.py --explore-*` gates
//! them exactly and the scenarios/sec geomean within a tolerance against
//! the committed `BENCH_explore.json`.
//!
//! Run: `cargo run --release -p manticore-bench --bin explore_throughput`
//!
//! Flags:
//! - `--json <path>` — write the measurements as JSON;
//! - `--grid <g>` — grid size to compile for (default 6);
//! - `--lanes <k>` — fork width per frontier checkpoint (default 16);
//! - `--rounds <n>` — exploration rounds (default 80);
//! - `--vcycles <n>` — Vcycles per forked child per round (default 20);
//! - `--frontier <n>` — frontier cap between rounds (default 8);
//! - `--warmup <n>` — root warm-up Vcycles (default 2);
//! - `--seed <n>` — stimulus PRNG seed (default 0);
//! - `--workers <n>` — worker threads (default 4);
//! - `--workloads <a,b>` — comma list (default `mm,bc`: both sustain the
//!   full default depth of 1602 Vcycles without reaching `$finish`);
//! - `--faults <n>` — inject a seeded [`FaultPlan`] of `n` points per
//!   workload (worker panics, stalls, spurious machine faults) and report
//!   how many scenarios were killed. The soak smoke in CI runs with a
//!   nonzero count and must exit 0 — exploration survives injection;
//! - `--fault-seed <n>` — seed for the injected plan (default 0).

use std::time::Instant;

use manticore::fleet::{BatchPolicy, ExploreConfig, FaultPlan, FleetSim};
use manticore::isa::MachineConfig;
use manticore::workloads;
use manticore_bench::{fmt, json::Val, reject_unknown_args, row, take_flag};

/// The registers each workload's fuzzer perturbs: pure data inputs (no
/// assertion in either design depends on them), so exploration diverges
/// the datapath without tripping self-checks.
fn stimulus_for(workload: &str) -> Vec<String> {
    match workload {
        // One nonce counter per hash pipe.
        "bc" => (0..6).map(|p| format!("nonce{p}")).collect(),
        // The west-edge pipeline registers of the systolic array's first
        // row: activations and partial sums.
        "mm" => (0..8)
            .flat_map(|c| [format!("ad_0_{c}"), format!("ps_0_{c}")])
            .collect(),
        // Per-lane price state of the Monte-Carlo walkers.
        "mc" => (0..8).map(|l| format!("price{l}")).collect(),
        other => panic!("no stimulus table for workload `{other}` (add one to explore_throughput)"),
    }
}

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
    let grid = parse(take_flag(&mut args, "--grid"), "--grid", 6) as usize;
    let lanes = parse(take_flag(&mut args, "--lanes"), "--lanes", 16) as usize;
    let rounds = parse(take_flag(&mut args, "--rounds"), "--rounds", 80) as usize;
    let vcycles = parse(take_flag(&mut args, "--vcycles"), "--vcycles", 20);
    let frontier = parse(take_flag(&mut args, "--frontier"), "--frontier", 8) as usize;
    let warmup = parse(take_flag(&mut args, "--warmup"), "--warmup", 2);
    let seed = parse(take_flag(&mut args, "--seed"), "--seed", 0);
    let workers = parse(take_flag(&mut args, "--workers"), "--workers", 4) as usize;
    let names = take_flag(&mut args, "--workloads").unwrap_or_else(|| "mm,bc".into());
    let faults = parse(take_flag(&mut args, "--faults"), "--faults", 0) as usize;
    let fault_seed = parse(take_flag(&mut args, "--fault-seed"), "--fault-seed", 0);
    reject_unknown_args(&args);

    let names: Vec<&str> = names.split(',').filter(|s| !s.is_empty()).collect();
    println!(
        "# Exploration throughput: scenario trees of {lanes}-lane forks, {rounds} rounds x \
         {vcycles} vcycles, frontier cap {frontier}, {workers} workers, {grid}x{grid} grid\n"
    );

    row(&[
        "workload".into(),
        "scenarios".into(),
        "wall s".into(),
        "scenarios/s".into(),
        "covered bits".into(),
        "displays".into(),
        "asserts".into(),
        "faults".into(),
    ]);
    println!("|---|---|---|---|---|---|---|---|");

    let config = MachineConfig::with_grid(grid, grid);
    let cfg = ExploreConfig {
        lanes,
        rounds,
        vcycles_per_round: vcycles,
        warmup_vcycles: warmup,
        frontier_cap: frontier,
        seed,
        stimulus: Vec::new(),
    };

    // The soak mode: spread `--faults` seeded injection points over the
    // tree's child-ordinal space. The headline numbers are only gated on
    // the clean path (`--faults 0`), where the policy is exactly default.
    let policy = if faults > 0 {
        let jobs = 1 + rounds * frontier * lanes;
        BatchPolicy {
            faults: FaultPlan::seeded(fault_seed, jobs, vcycles, faults),
            ..BatchPolicy::default()
        }
    } else {
        BatchPolicy::default()
    };

    let mut json_rows: Vec<Val> = Vec::new();
    let mut log_sum = 0.0f64;
    for name in &names {
        let w = workloads::by_name(name).unwrap_or_else(|| panic!("unknown workload `{name}`"));
        let stimulus = stimulus_for(name);
        let stimulus: Vec<&str> = stimulus.iter().map(String::as_str).collect();
        let fleet = FleetSim::compile(&w.netlist, config.clone(), workers)
            .unwrap_or_else(|e| panic!("{name}: compile failed: {e}"));
        let t = Instant::now();
        let report = fleet
            .explore(&stimulus, &cfg, &policy)
            .unwrap_or_else(|e| panic!("{name}: explore failed: {e}"));
        let secs = t.elapsed().as_secs_f64();
        if faults > 0 {
            println!(
                "# {name}: survived a {faults}-point injected plan (seed {fault_seed}): \
                 {} scenarios killed, {} explored",
                report.killed, report.scenarios
            );
        }
        let rate = report.scenarios as f64 / secs;
        log_sum += rate.ln();
        row(&[
            name.to_string(),
            report.scenarios.to_string(),
            fmt(secs),
            fmt(rate),
            report.covered_bits.to_string(),
            report.displays.to_string(),
            report.asserts.to_string(),
            report.faults.to_string(),
        ]);
        json_rows.push(Val::obj(vec![
            ("name", Val::Str(name.to_string())),
            ("scenarios", Val::Int(report.scenarios)),
            ("rounds_run", Val::Int(report.rounds_run as u64)),
            ("wall_seconds", Val::Num(secs)),
            ("scenarios_per_sec", Val::Num(rate)),
            ("covered_bits", Val::Int(report.covered_bits)),
            ("frontier_peak", Val::Int(report.frontier_peak as u64)),
            ("displays", Val::Int(report.displays)),
            ("asserts", Val::Int(report.asserts)),
            ("faults", Val::Int(report.faults)),
            ("finished", Val::Int(report.finished)),
        ]));
    }

    let geomean = (log_sum / names.len() as f64).exp();
    println!(
        "\nexploration geomean: {} forked scenarios/sec",
        fmt(geomean)
    );

    if let Some(path) = json_path {
        let v = Val::obj(vec![
            ("bench", Val::Str("explore_throughput".into())),
            ("grid", Val::Int(grid as u64)),
            ("lanes", Val::Int(lanes as u64)),
            ("rounds", Val::Int(rounds as u64)),
            ("vcycles", Val::Int(vcycles)),
            ("frontier", Val::Int(frontier as u64)),
            ("warmup", Val::Int(warmup)),
            ("seed", Val::Int(seed)),
            ("workers", Val::Int(workers as u64)),
            ("rows", Val::Arr(json_rows)),
            ("geomean_scenarios_per_sec", Val::Num(geomean)),
        ]);
        manticore_bench::json::write(&path, &v);
        println!("wrote {path}");
    }
}
