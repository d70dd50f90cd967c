//! The `solo` workload: the paper's designs, one machine at a time, run
//! to `$finish` on the default micro-op engine (the Table 3 shape).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use manticore::bits::Bits;
use manticore::compiler::{CompileOptions, CompileOutput};
use manticore::isa::MachineConfig;
use manticore::machine::{CompiledProgram, PerfCounters};
use manticore::sim::{Simulator, TapeSim};
use manticore::workloads::{self, Workload};
use manticore::ManticoreSim;

use crate::common::{self, SetupRep};
use crate::stats::{
    geomean_of_percentiles, percentile, pooled_relative_percentile, tail_line, Tally, FAST,
};
use crate::trace::Tracer;
use crate::{Report, RunCfg, SETUP_REPS};

/// One compiled design and what a correct run of it produces.
struct Design {
    workload: Workload,
    config: MachineConfig,
    output: Arc<CompileOutput>,
    program: Arc<CompiledProgram>,
    /// Vcycles a run takes to reach `$finish`, per the reference.
    vcycles: u64,
    displays: Vec<String>,
    /// (optimized-netlist register index, reference value).
    regs: Vec<(usize, Bits)>,
    /// Machine counters of a checked run; every timed run must match.
    counters: PerfCounters,
}

/// Per-design samples of one timed phase.
#[derive(Default)]
struct Phase {
    wall_s: f64,
    runs: u64,
    latency_ms: Vec<Vec<f64>>,
    rate_khz: Vec<Vec<f64>>,
    /// Boot-plus-run seconds of each complete round.
    round_s: Vec<f64>,
}

fn designs() -> Vec<(Workload, MachineConfig)> {
    let mut all: Vec<(Workload, MachineConfig)> = workloads::all()
        .into_iter()
        .map(|w| (w, MachineConfig::with_grid(15, 15)))
        .collect();
    let soc = workloads::by_name("soc").expect("soc is in the catalog");
    all.push((soc, MachineConfig::with_grid(16, 16)));
    all
}

/// Compiles every design with default options and freezes its program.
fn setup(
    rep: &mut SetupRep,
) -> Vec<(
    Workload,
    MachineConfig,
    Arc<CompileOutput>,
    Arc<CompiledProgram>,
)> {
    let t = Instant::now();
    let out = designs()
        .into_iter()
        .map(|(w, config)| {
            let options = CompileOptions {
                config: config.clone(),
                ..CompileOptions::default()
            };
            let output = rep.compile(&w.netlist, &options);
            let program = rep.freeze(|| {
                CompiledProgram::compile_shared(config.clone(), &output.binary)
                    .expect("compiled designs load")
            });
            (w, config, output, program)
        })
        .collect();
    rep.total_s = t.elapsed().as_secs_f64();
    out
}

/// The reference run, `TapeSim::serial` to `$finish`, and one machine
/// run checked against it, whose counters every timed run must repeat.
fn ground_truth(
    w: Workload,
    config: MachineConfig,
    output: Arc<CompileOutput>,
    program: Arc<CompiledProgram>,
) -> Result<Design, String> {
    let mut tape = TapeSim::serial(&w.netlist).map_err(|e| e.to_string())?;
    let run = tape
        .run_cycles(budget(&w))
        .map_err(|e| format!("{}: reference run failed: {e}", w.name))?;
    if !run.finished {
        return Err(format!("{}: reference run did not finish", w.name));
    }
    let regs = output
        .optimized
        .registers()
        .iter()
        .enumerate()
        .filter_map(|(i, r)| tape.rtl_reg(&r.name).map(|bits| (i, bits)))
        .collect::<Vec<_>>();
    if regs.is_empty() {
        return Err(format!("{}: no register to compare", w.name));
    }
    let mut design = Design {
        vcycles: tape.perf().cycles,
        displays: tape.displays().to_vec(),
        regs,
        counters: PerfCounters::default(),
        workload: w,
        config,
        output,
        program,
    };
    let (sim, vcycles, finished, _) = common::run_solo(
        &Tracer::new(false),
        None,
        0,
        &design.program,
        &design.output,
        &[],
        budget(&design.workload),
    )?;
    if !design.matches(&sim, vcycles, finished) {
        return Err(format!(
            "{}: machine run differs from TapeSim",
            design.workload.name
        ));
    }
    design.counters = sim.machine().counters();
    Ok(design)
}

impl Design {
    /// Whether a run reached `$finish` on the reference Vcycle with the
    /// reference displays and registers.
    fn matches(&self, sim: &ManticoreSim, vcycles: u64, finished: bool) -> bool {
        finished
            && vcycles == self.vcycles
            && sim.all_displays() == self.displays.as_slice()
            && self
                .regs
                .iter()
                .all(|(i, bits)| sim.read_rtl_reg(*i) == *bits)
    }
}

/// Twice the cycles a benchmark run of `w` takes: every design finishes
/// well inside it.
fn budget(w: &Workload) -> u64 {
    2 * w.bench_cycles
}

/// Runs rounds until the phase is over: each round boots and runs every
/// design once, in a seeded order, and checks each run.
fn timed(cfg: &RunCfg, designs: &[Design], tracer: &Tracer, tally: &mut Tally) -> Phase {
    let mut rng = common::rng(cfg.seed, 1);
    let mut phase = Phase {
        latency_ms: vec![Vec::new(); designs.len()],
        rate_khz: vec![Vec::new(); designs.len()],
        ..Phase::default()
    };
    let mut order: Vec<usize> = (0..designs.len()).collect();
    let start = Instant::now();
    let mut round = 0u64;
    while cfg.keep_timing(start.elapsed().as_secs_f64(), round as usize) {
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..i + 1));
        }
        let round_span = tracer.open("solo.round", None, round);
        let mut round_s = 0.0;
        for &d in &order {
            let design = &designs[d];
            let id = phase.runs;
            let run_span = tracer.open("solo.run", round_span, id);
            let run = common::run_solo(
                tracer,
                run_span,
                id,
                &design.program,
                &design.output,
                &[],
                budget(&design.workload),
            );
            tracer.close(run_span);
            phase.runs += 1;
            let name = design.workload.name;
            let (sim, vcycles, finished, secs) = match run {
                Ok(run) => run,
                Err(e) => {
                    tally.check(false, || format!("solo {name}: {e}"));
                    continue;
                }
            };
            round_s += secs;
            phase.latency_ms[d].push(secs * 1e3);
            phase.rate_khz[d].push(vcycles as f64 / secs / 1e3);
            let ok = design.matches(&sim, vcycles, finished)
                && sim.machine().counters() == design.counters;
            tally.check(ok, || {
                format!("solo {name} run {id}: differs from the reference run")
            });
        }
        tracer.close(round_span);
        phase.round_s.push(round_s);
        round += 1;
    }
    phase.wall_s = start.elapsed().as_secs_f64();
    phase
}

/// Runs the `solo` workload.
pub fn run(cfg: &RunCfg) -> Report {
    let mut report = Report::default();
    let mut reps: Vec<SetupRep> = (0..SETUP_REPS).map(|_| SetupRep::default()).collect();
    let mut compiled = Vec::new();
    for rep in &mut reps {
        compiled = setup(rep);
    }
    let mut designs = Vec::new();
    for (w, config, output, program) in compiled {
        let name = w.name;
        let truth = ground_truth(w, config, output, program);
        report.tally.check(truth.is_ok(), || {
            format!("solo {name}: {:?}", truth.as_ref().err())
        });
        designs.extend(truth);
    }
    for d in &designs {
        let prefix = format!("solo.{}.run", d.workload.name);
        crate::expect::counters(&mut report.exact, &prefix, &d.counters);
    }
    let rows: Vec<(&str, &MachineConfig, &CompileOutput)> = designs
        .iter()
        .map(|d| (d.workload.name, &d.config, d.output.as_ref()))
        .collect();
    let khz = common::compile_exact("solo", &rows, &mut report.exact, &mut report.per_layer);
    report.info.push((
        "manticore_khz".into(),
        format!("{khz:>14.4} kHz (simulated)"),
    ));

    let untraced = Tracer::new(false);
    let phase = timed(cfg, &designs, &untraced, &mut report.tally);
    metrics(&phase, &mut report.end_to_end);
    common::setup_metrics(&reps, &mut report.end_to_end, &mut report.per_layer);
    if let Some(thinnest) = phase.latency_ms.iter().min_by_key(|s| s.len()) {
        report
            .info
            .push(("run latency, thinnest design".into(), tail_line(thinnest)));
    }
    report.info.push((
        "rounds".into(),
        format!(
            "{} runs of {} designs in {:.2} s",
            phase.runs,
            designs.len(),
            phase.wall_s
        ),
    ));

    if cfg.trace {
        let tracer = Tracer::new(true);
        let traced = timed(cfg, &designs, &tracer, &mut report.tally);
        let mut traced_e2e = BTreeMap::new();
        metrics(&traced, &mut traced_e2e);
        report.finish_trace(&traced_e2e, &tracer, "solo", cfg.seed);
        common::machine_timing(&tracer, &mut report.per_layer);
    }
    common::machine_counts(designs.iter().map(|d| &d.counters), &mut report.per_layer);
    report
}

fn metrics(phase: &Phase, out: &mut BTreeMap<String, f64>) {
    out.insert(
        "sim_khz".into(),
        geomean_of_percentiles(&phase.rate_khz, FAST),
    );
    let designs = phase.latency_ms.len() as f64;
    let round_rates: Vec<f64> = phase.round_s.iter().map(|s| designs / s).collect();
    out.insert("runs_per_s".into(), percentile(&round_rates, FAST));
    // A step is one run, boot plus run to `$finish`, read on the host's
    // fast side like the rates: over the runs of the fastest rounds.
    // Designs differ hundredfold in length, so each run is read against
    // its design's median before the designs are pooled.
    let fast = fast_rounds(&phase.latency_ms, &phase.round_s);
    out.insert(
        "step_p50_ms".into(),
        pooled_relative_percentile(&fast, 50.0),
    );
    out.insert(
        "step_p90_ms".into(),
        pooled_relative_percentile(&fast, 90.0),
    );
}

/// Rounds the step latencies are read over: the fastest fifth, and at
/// least 20, so that the pooled runs of ten designs put 20 beyond p90.
const FAST_ROUNDS_MIN: usize = 20;

/// Each design's latencies (`latency_ms[design][round]`) in the fastest
/// rounds by `round_s`. A round runs every design once, so its time is
/// the host's speed at that moment with this program's work held fixed.
fn fast_rounds(latency_ms: &[Vec<f64>], round_s: &[f64]) -> Vec<Vec<f64>> {
    let mut rounds: Vec<usize> = (0..round_s.len()).collect();
    rounds.sort_by(|&a, &b| round_s[a].total_cmp(&round_s[b]));
    rounds.truncate((round_s.len() / 5).max(FAST_ROUNDS_MIN));
    latency_ms
        .iter()
        .map(|runs| {
            rounds
                .iter()
                .filter_map(|&r| runs.get(r).copied())
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_rounds_keep_whole_rounds() {
        // 100 rounds of two designs, slowest first: round i takes
        // 199 - i s, and design 0 runs 99 - i ms in it. The fastest fifth
        // is the last 20 rounds, where design 0 ran 19 down to 0 ms.
        let round_s: Vec<f64> = (0..100).rev().map(|r| f64::from(100 + r)).collect();
        let latency_ms = vec![
            (0..100).rev().map(f64::from).collect::<Vec<_>>(),
            vec![100.0; 100],
        ];
        let fast = fast_rounds(&latency_ms, &round_s);
        assert_eq!(fast[0], (0..20).map(f64::from).collect::<Vec<_>>());
        assert_eq!(fast[1], vec![100.0; 20]);
        // Fewer rounds than the minimum: all of them.
        assert_eq!(fast_rounds(&latency_ms, &round_s[..7])[1].len(), 7);
    }
}
