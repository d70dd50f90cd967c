//! Table 3: the headline comparison — serial and multithreaded baseline
//! simulation rates vs. Manticore's, with speedups and geomeans.
//!
//! Baselines are *measured* wall-clock rates of the Verilator-analog tape
//! simulator on this host, driven through the unified `Simulator` trait;
//! Manticore rates are `475 MHz / VCPL` on the paper's 15×15
//! configuration, the same formula the paper reports (the compiler counts
//! cycles exactly in the absence of off-chip accesses).
//!
//! Three extra columns measure *the model itself* on this host — the
//! cycle-accurate grid interpreter (`model kHz`) versus its validate-once
//! / replay-many engine, the fused micro-op stream over
//! structure-of-arrays state (`uop kHz`). `uop x` is the resulting
//! vcycles/second speedup over the interpreter; results are bit-identical
//! in every column.
//!
//! Run: `cargo run --release -p manticore-bench --bin table3_performance`
//!
//! Flags:
//! - `--json <path>` — additionally write the measurements as JSON (the
//!   committed `BENCH_table3.json` tracks the perf trajectory per PR);
//! - `--vcycles <n>` — cap both the baseline and the model measurement
//!   budget (CI smoke uses a tiny cap).

use std::sync::Arc;

use manticore::compiler::PartitionStrategy;
use manticore::isa::MachineConfig;
use manticore::sim::{Simulator, TapeSim};
use manticore::workloads;
use manticore::ManticoreSim;
use manticore_bench::{compile_for_grid, fmt, json::Val, reject_unknown_args, row, take_flag};

/// Measured machine-model rate in kHz over `vcycles` Vcycles, on the
/// micro-op replay engine or (`replay` false) the interpreter. A first
/// run proves the program (its one Vcycle is the interpreted validation
/// Vcycle); the timed window is a later run of the proven program, so it
/// holds only Vcycles of the engine under test, and no boot.
fn measured_model_khz(
    out: &Arc<manticore::compiler::CompileOutput>,
    config: &MachineConfig,
    replay: bool,
    vcycles: u64,
) -> Option<f64> {
    let mut proof = ManticoreSim::from_output(out.clone(), config.clone()).ok()?;
    proof.run_cycles(1).ok()?;
    let program = Arc::clone(proof.machine().program());
    let mut sim = ManticoreSim::from_program(program, out.clone());
    sim.set_replay(replay);
    sim.run_cycles(vcycles).ok()?;
    Some(sim.perf().measured_rate_khz())
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let json_path = take_flag(&mut args, "--json");
    let vcycle_cap: Option<u64> = take_flag(&mut args, "--vcycles").map(|v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("--vcycles expects an integer, got {v}");
            std::process::exit(2);
        })
    });
    reject_unknown_args(&args);

    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let mt_threads = threads.min(8);
    println!("# Table 3: simulation performance (baseline measured on this host, {mt_threads} MT threads)\n");
    row(&[
        "bench".into(),
        "#ops/cyc".into(),
        "serial kHz".into(),
        "MT kHz".into(),
        "MT xself".into(),
        "manticore kHz".into(),
        "xS".into(),
        "xMT".into(),
        "model kHz".into(),
        "uop kHz".into(),
        "uop x".into(),
        "VCPL".into(),
        "cores".into(),
    ]);
    println!("|---|---|---|---|---|---|---|---|---|---|---|---|---|");

    let mut geo_s = 1.0f64;
    let mut geo_mt = 1.0f64;
    let mut geo_self = 1.0f64;
    let mut geo_uop = 1.0f64;
    let mut n = 0u32;
    let mut n_uop = 0u32;
    let mut json_rows: Vec<Val> = Vec::new();
    for w in workloads::all() {
        let cycles = match vcycle_cap {
            Some(cap) => w.bench_cycles.min(cap),
            None => w.bench_cycles,
        };

        let mut serial = TapeSim::serial(&w.netlist).expect("tape");
        serial.run_cycles(cycles).expect("serial baseline run");
        let s_khz = serial.perf().measured_rate_khz();

        let mut par = TapeSim::parallel(&w.netlist, mt_threads, 64).expect("tape");
        par.run_cycles(cycles).expect("parallel baseline run");
        let p_khz = par.perf().measured_rate_khz();

        let out = Arc::new(compile_for_grid(
            &w.netlist,
            15,
            PartitionStrategy::Balanced,
        ));
        let config = MachineConfig::default();
        let m_khz = config.simulation_rate_khz(out.report.vcpl);

        // Measure the model itself: full interpreter vs the replay engine.
        let model_vcycles = cycles.min(300);
        let interp_khz = measured_model_khz(&out, &config, false, model_vcycles);
        let uop_khz = measured_model_khz(&out, &config, true, model_vcycles);
        let uop_x = match (uop_khz, interp_khz) {
            (Some(u), Some(i)) if i > 0.0 => Some(u / i),
            _ => None,
        };
        let opt = |v: Option<f64>| v.map(fmt).unwrap_or_else(|| "-".into());

        let xs = m_khz / s_khz;
        let xmt = m_khz / p_khz;
        let xself = p_khz / s_khz;
        geo_s *= xs;
        geo_mt *= xmt;
        geo_self *= xself;
        if let Some(u) = uop_x {
            geo_uop *= u;
            n_uop += 1;
        }
        n += 1;

        row(&[
            w.name.into(),
            serial.tape().step_size().to_string(),
            fmt(s_khz),
            fmt(p_khz),
            fmt(xself),
            fmt(m_khz),
            fmt(xs),
            fmt(xmt),
            opt(interp_khz),
            opt(uop_khz),
            opt(uop_x),
            out.report.vcpl.to_string(),
            out.report.cores_used.to_string(),
        ]);

        let f = |v: Option<f64>| Val::Num(v.unwrap_or(f64::NAN));
        json_rows.push(Val::obj(vec![
            ("name", Val::Str(w.name.to_string())),
            ("vcpl", Val::Int(out.report.vcpl)),
            ("cores_used", Val::Int(out.report.cores_used as u64)),
            ("baseline_serial_khz", Val::Num(s_khz)),
            ("baseline_mt_khz", Val::Num(p_khz)),
            ("manticore_khz", Val::Num(m_khz)),
            ("model_vcycles", Val::Int(model_vcycles)),
            ("interp_khz", f(interp_khz)),
            ("uop_khz", f(uop_khz)),
            ("uop_x", f(uop_x)),
        ]));
    }
    let g = |v: f64, k: u32| {
        if k == 0 {
            f64::NAN
        } else {
            v.powf(1.0 / k as f64)
        }
    };
    let gs = |v: f64, k: u32| {
        if k == 0 {
            "-".into()
        } else {
            fmt(g(v, k))
        }
    };
    println!(
        "\ngeomean speedups: xS = {}, xMT = {}, MT xself = {},",
        gs(geo_s, n),
        gs(geo_mt, n),
        gs(geo_self, n),
    );
    println!(
        "model replay engine vs interpreter: micro-ops = {}",
        gs(geo_uop, n_uop)
    );
    println!("\npaper anchors (225-core, 475 MHz): geomean xS 2.8-3.4, xMT 2.1-4.2;");
    println!("manticore wins everywhere except jpeg (serial Huffman chain).");

    if let Some(path) = json_path {
        let doc = Val::obj(vec![
            ("bench", Val::Str("table3_performance".into())),
            ("grid", Val::Int(15)),
            ("mt_threads", Val::Int(mt_threads as u64)),
            ("rows", Val::Arr(json_rows)),
            (
                "geomean",
                Val::obj(vec![
                    ("xs", Val::Num(g(geo_s, n))),
                    ("xmt", Val::Num(g(geo_mt, n))),
                    ("uop_vs_interp", Val::Num(g(geo_uop, n_uop))),
                ]),
            ),
        ]);
        manticore_bench::json::write(&path, &doc);
        println!("\nwrote {path}");
    }
}
