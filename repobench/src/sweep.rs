//! The `sweep` workload: seeded scenario batches of three designs on the
//! fleet pool, lane-batched into gangs.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use manticore::compiler::{CompileOptions, CompileOutput};
use manticore::fleet::{BatchPolicy, Fleet, FleetJob, FleetSim, JobOutcome, JobOutput};
use manticore::isa::MachineConfig;
use manticore::machine::PerfCounters;
use manticore::util::SmallRng;
use manticore::workloads;

use crate::common::{self, SetupRep};
use crate::stats::{geomean_of_percentiles, median, pooled_relative_percentile, tail_line, Tally};
use crate::trace::Tracer;
use crate::{Report, RunCfg, SETUP_REPS};

/// Grid side every sweep design is compiled for.
const GRID: usize = 8;
/// Lanes per gang, `fleet_throughput`'s default. A timed batch is one
/// gang of this many scenarios.
const LANES: usize = 8;
/// Workers of the timed fleet. One gang on one worker per batch: on a
/// shared 2-CPU box two gangs side by side slowed each other by about
/// 1.4×, and a batch was fast only when both CPUs were at once, so even
/// the fast side of two-worker batches moved from run to run.
const WORKERS: usize = 1;
/// Scenarios per batch re-run solo after timing.
const SAMPLES_PER_BATCH: usize = 2;
/// Batches per design streamed after the traced phase for
/// `fleet.spread_ms`.
const SPREAD_BATCHES: usize = 2;

/// One design of the sweep: its fleet, inputs and read-backs.
struct Design {
    name: &'static str,
    fleet: FleetSim,
    budget: u64,
    /// The data-input registers each scenario pokes.
    inputs: Vec<String>,
    /// Registers read back from every sampled scenario.
    reads: Vec<String>,
    /// Vcycles to `$finish`, and the counters no input changes, from a
    /// reference run.
    reference: PerfCounters,
}

/// A scenario kept for the solo re-run.
struct Sample {
    design: usize,
    pokes: Vec<u64>,
    reads: Vec<Option<u64>>,
    displays: Vec<String>,
    counters: PerfCounters,
    fingerprint: u64,
}

#[derive(Default)]
struct Phase {
    scenarios: u64,
    vcycles: u64,
    batch_ms: Vec<f64>,
    batch_design: Vec<usize>,
    /// Per design: each batch's time in ms, simulated kHz and scenarios
    /// per second.
    design_batch_ms: Vec<Vec<f64>>,
    batch_khz: Vec<Vec<f64>>,
    batch_runs_per_s: Vec<Vec<f64>>,
    samples: Vec<Sample>,
}

/// Compiles bc, mm and mc with `workers` compile threads, as
/// `FleetSim::compile(.., workers)` does, and loads each into a fleet of
/// [`WORKERS`].
fn setup(rep: &mut SetupRep, workers: usize) -> Vec<(&'static str, MachineConfig, FleetSim)> {
    let t = Instant::now();
    let out = ["bc", "mm", "mc"]
        .into_iter()
        .map(|name| {
            let w = workloads::by_name(name).expect("sweep designs are in the catalog");
            let config = MachineConfig::with_grid(GRID, GRID);
            let options = CompileOptions {
                config: config.clone(),
                compile_threads: workers,
                ..CompileOptions::default()
            };
            let output = rep.compile(&w.netlist, &options);
            let fleet = rep.freeze(|| {
                FleetSim::from_output(output, config.clone(), WORKERS)
                    .expect("compiled designs load")
            });
            (w.name, config, fleet)
        })
        .collect();
    rep.total_s = t.elapsed().as_secs_f64();
    out
}

/// One batch of `design`: `count` scenarios with seeded values poked
/// into its data inputs. Returns each scenario's pokes and its job.
fn scenarios(
    design: &Design,
    count: usize,
    inputs: &mut SmallRng,
) -> (Vec<Vec<u64>>, Vec<FleetJob>) {
    let pokes: Vec<Vec<u64>> = (0..count)
        .map(|_| {
            design
                .inputs
                .iter()
                .map(|_| inputs.next_u64() & 0xffff)
                .collect()
        })
        .collect();
    let jobs = pokes
        .iter()
        .map(|p| {
            design
                .inputs
                .iter()
                .zip(p)
                .fold(design.fleet.job(design.budget), |job, (name, &value)| {
                    job.with_reg(name, value).expect("sweep inputs exist")
                })
        })
        .collect();
    (pokes, jobs)
}

/// Runs seeded batches through `FleetSim::run_ganged` until the phase is
/// over, checking every scenario against the reference and keeping
/// seeded samples for the solo re-run.
fn timed(cfg: &RunCfg, designs: &[Design], tracer: &Tracer, tally: &mut Tally) -> Phase {
    let mut inputs = common::rng(cfg.seed, 2);
    let mut picks = common::rng(cfg.seed, 3);
    let mut phase = Phase {
        design_batch_ms: vec![Vec::new(); designs.len()],
        batch_khz: vec![Vec::new(); designs.len()],
        batch_runs_per_s: vec![Vec::new(); designs.len()],
        ..Phase::default()
    };
    let start = Instant::now();
    let mut batch = 0u64;
    while cfg.keep_timing(start.elapsed().as_secs_f64(), phase.batch_ms.len()) {
        let d = batch as usize % designs.len();
        let design = &designs[d];
        let span = tracer.open("fleet.batch", None, batch);
        let t = Instant::now();
        let (pokes, jobs) = scenarios(design, LANES, &mut inputs);
        let runs = design.fleet.run_ganged(jobs, LANES);
        let secs = t.elapsed().as_secs_f64();
        tracer.close(span);
        phase.batch_ms.push(secs * 1e3);
        phase.batch_design.push(d);
        phase.design_batch_ms[d].push(secs * 1e3);
        let sampled: Vec<usize> = (0..SAMPLES_PER_BATCH)
            .map(|_| picks.gen_range(0..LANES))
            .collect();
        tally.check(runs.len() == LANES, || {
            format!(
                "sweep batch {batch}: {} of {LANES} scenarios returned",
                runs.len()
            )
        });
        let (scenarios, vcycles) = (phase.scenarios, phase.vcycles);
        for run in runs {
            let id = batch * LANES as u64 + run.index as u64;
            let vcycles = run.result.as_ref().map_or(0, |r| r.vcycles_run);
            let ok = run.outcome == JobOutcome::Complete
                && run.sim.as_ref().is_some_and(|sim| {
                    common::input_independent(&sim.machine().counters()) == design.reference
                })
                && vcycles == design.reference.vcycles;
            tally.check(ok, || {
                format!(
                    "sweep {} scenario {id}: {:?} after {vcycles} vcycles",
                    design.name, run.outcome
                )
            });
            if !ok {
                continue;
            }
            phase.scenarios += 1;
            phase.vcycles += vcycles;
            if sampled.contains(&run.index) {
                let sim = run.sim.as_ref().expect("checked above");
                phase.samples.push(Sample {
                    design: d,
                    pokes: pokes[run.index].clone(),
                    reads: design
                        .reads
                        .iter()
                        .map(|r| sim.read_rtl_reg_by_name(r).map(|b| b.to_u64()))
                        .collect(),
                    displays: sim.all_displays().to_vec(),
                    counters: sim.machine().counters(),
                    fingerprint: sim.machine().state_fingerprint(),
                });
            }
        }
        phase.batch_khz[d].push((phase.vcycles - vcycles) as f64 / secs / 1e3);
        phase.batch_runs_per_s[d].push((phase.scenarios - scenarios) as f64 / secs);
        batch += 1;
    }
    phase
}

/// The last minus the first job completion of each of SPREAD_BATCHES
/// seeded batches per design, in ms. `FleetSim::run_ganged` hands its
/// results back only at the end of a batch, so these batches go through
/// `Fleet::run_ganged_stream`, whose sink sees each completion; every
/// scenario is checked like a timed one. A gang's lanes finish together,
/// so each of these batches holds one gang per worker of a `workers`
/// pool, the shape of the gang rows of `fleet_throughput`.
fn spreads(
    cfg: &RunCfg,
    designs: &[Design],
    workers: usize,
    tracer: &Tracer,
    tally: &mut Tally,
) -> Vec<f64> {
    let mut inputs = common::rng(cfg.seed, 8);
    let fleet = Fleet::new(workers);
    let count = LANES * workers;
    let mut out = Vec::new();
    for (batch, design) in designs
        .iter()
        .flat_map(|d| std::iter::repeat_n(d, SPREAD_BATCHES))
        .enumerate()
    {
        let (_, jobs) = scenarios(design, count, &mut inputs);
        let jobs = jobs.into_iter().map(FleetJob::into_sim_job).collect();
        let done: Mutex<Vec<(Instant, JobOutput)>> = Mutex::new(Vec::with_capacity(count));
        tracer.span("fleet.stream_batch", None, batch as u64, || {
            fleet.run_ganged_stream(jobs, LANES, &BatchPolicy::default(), &|job| {
                done.lock()
                    .expect("sink poisoned")
                    .push((Instant::now(), job));
            });
        });
        let done = done.into_inner().expect("sink poisoned");
        let ok = done.len() == count
            && done.iter().all(|(_, job)| {
                job.outcome == JobOutcome::Complete
                    && job.machine.as_ref().is_some_and(|m| {
                        common::input_independent(&m.counters()) == design.reference
                    })
            });
        tally.check(ok, || {
            format!(
                "sweep {} streamed batch {batch}: a scenario differs",
                design.name
            )
        });
        let first = done.iter().map(|(at, _)| *at).min();
        let last = done.iter().map(|(at, _)| *at).max();
        if let (Some(first), Some(last)) = (first, last) {
            out.push((last - first).as_secs_f64() * 1e3);
        }
    }
    out
}

/// Re-runs the sampled scenarios on a solo `ManticoreSim` and checks
/// them; returns each design's solo run times in ms.
fn check_samples(
    phase: &Phase,
    designs: &[Design],
    tracer: &Tracer,
    tally: &mut Tally,
) -> Vec<Vec<f64>> {
    let mut solo_ms = vec![Vec::new(); designs.len()];
    for (i, s) in phase.samples.iter().enumerate() {
        let design = &designs[s.design];
        let pokes: Vec<(&str, u64)> = design
            .inputs
            .iter()
            .map(String::as_str)
            .zip(s.pokes.iter().copied())
            .collect();
        let run = common::run_solo(
            tracer,
            None,
            i as u64,
            design.fleet.program(),
            design.fleet.output(),
            &pokes,
            design.budget,
        );
        let ok = run.as_ref().is_ok_and(|(sim, vcycles, finished, secs)| {
            solo_ms[s.design].push(secs * 1e3);
            let reads: Vec<Option<u64>> = design
                .reads
                .iter()
                .map(|r| sim.read_rtl_reg_by_name(r).map(|b| b.to_u64()))
                .collect();
            *finished
                && *vcycles == design.reference.vcycles
                && reads == s.reads
                && sim.all_displays() == s.displays.as_slice()
                && sim.machine().counters() == s.counters
                && sim.machine().state_fingerprint() == s.fingerprint
        });
        tally.check(ok, || {
            format!(
                "sweep {} sample {i}: fleet and solo runs differ",
                design.name
            )
        });
    }
    solo_ms
}

/// Runs the `sweep` workload.
pub fn run(cfg: &RunCfg) -> Report {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut report = Report::default();
    let mut reps: Vec<SetupRep> = (0..SETUP_REPS).map(|_| SetupRep::default()).collect();
    let mut compiled = Vec::new();
    for rep in &mut reps {
        compiled = setup(rep, workers);
    }
    let rows: Vec<(&str, &MachineConfig, &CompileOutput)> = compiled
        .iter()
        .map(|(name, config, fleet)| (*name, config, fleet.output().as_ref()))
        .collect();
    let khz = common::compile_exact("sweep", &rows, &mut report.exact, &mut report.per_layer);
    report.info.push((
        "manticore_khz".into(),
        format!("{khz:>14.4} kHz (simulated)"),
    ));

    let mut designs = Vec::new();
    for (name, _, fleet) in compiled {
        let w = workloads::by_name(name).expect("sweep designs are in the catalog");
        let (inputs, checksum) = common::stimulus(name);
        let mut reads = inputs.clone();
        reads.push(checksum.to_string());
        let budget = 2 * w.bench_cycles;
        // The reference: one solo run with every input at zero.
        let run = common::run_solo(
            &Tracer::new(false),
            None,
            0,
            fleet.program(),
            fleet.output(),
            &[],
            budget,
        );
        let reference = run
            .as_ref()
            .ok()
            .filter(|(_, _, finished, _)| *finished)
            .map(|(sim, ..)| common::input_independent(&sim.machine().counters()));
        report.tally.check(reference.is_some(), || {
            format!("sweep {name}: reference run failed")
        });
        let Some(reference) = reference else { continue };
        let mut stats = BTreeMap::new();
        crate::expect::counters(&mut stats, &format!("sweep.{name}.run"), &reference);
        report.exact.extend(
            stats
                .into_iter()
                .filter(|(k, _)| !k.ends_with("stall_cycles") && !k.ends_with("exceptions")),
        );
        designs.push(Design {
            name,
            fleet,
            budget,
            inputs,
            reads,
            reference,
        });
    }

    let untraced = Tracer::new(false);
    let phase = timed(cfg, &designs, &untraced, &mut report.tally);
    check_samples(&phase, &designs, &untraced, &mut report.tally);
    metrics(&phase, &mut report.end_to_end);
    common::setup_metrics(&reps, &mut report.end_to_end, &mut report.per_layer);
    report
        .info
        .push(("batch latency".into(), tail_line(&phase.batch_ms)));
    report.info.push((
        "batches".into(),
        format!(
            "{} batches, {} scenarios, {} samples re-run solo, {WORKERS} worker",
            phase.batch_ms.len(),
            phase.scenarios,
            phase.samples.len()
        ),
    ));

    if cfg.trace {
        let tracer = Tracer::new(true);
        let traced = timed(cfg, &designs, &tracer, &mut report.tally);
        let solo_ms = check_samples(&traced, &designs, &tracer, &mut report.tally);
        let spread_ms = spreads(cfg, &designs, workers, &tracer, &mut report.tally);
        let mut traced_e2e = BTreeMap::new();
        metrics(&traced, &mut traced_e2e);
        report.finish_trace(&traced_e2e, &tracer, "sweep", cfg.seed);
        common::machine_timing(&tracer, &mut report.per_layer);
        fleet_layer(&traced, &solo_ms, &spread_ms, &mut report.per_layer);
    }
    common::machine_counts(designs.iter().map(|d| &d.reference), &mut report.per_layer);
    report
}

/// The fleet metrics of a traced phase. Efficiency compares the batches
/// with running their scenarios one by one on a solo machine.
fn fleet_layer(
    phase: &Phase,
    solo_ms: &[Vec<f64>],
    spread_ms: &[f64],
    out: &mut BTreeMap<String, f64>,
) {
    let workers = WORKERS;
    let n = phase.batch_ms.len() as f64;
    let batch_ms = phase.batch_ms.iter().sum::<f64>() / n;
    let solo_equiv_ms = phase
        .batch_design
        .iter()
        .map(|&d| LANES as f64 * median(&solo_ms[d]))
        .sum::<f64>()
        / n;
    out.insert("fleet.batch_ms".into(), batch_ms);
    out.insert(
        "fleet.spread_ms".into(),
        spread_ms.iter().sum::<f64>() / spread_ms.len() as f64,
    );
    out.insert("fleet.solo_equiv_ms".into(), solo_equiv_ms);
    out.insert("fleet.workers".into(), workers as f64);
    out.insert(
        "fleet.efficiency".into(),
        solo_equiv_ms / (workers as f64 * batch_ms),
    );
}

/// The percentile of per-batch rates sweep reads throughput at. A design
/// has only 50-100 batches in a run, and in the host's slow stretches
/// fewer than one in ten of them is fast, so p90 (`stats::FAST`) fell into the
/// slow batches in some runs; p98, about the second fastest batch of a
/// design, did so less (IQR over median 0.24 against 0.32 over the
/// slowest stretch seen, 0.06 against 0.09 otherwise).
const FAST_BATCH: f64 = 98.0;

fn metrics(phase: &Phase, out: &mut BTreeMap<String, f64>) {
    // A one-gang batch lasts 70-90 ms when the host leaves its CPU alone
    // and about twice that when a neighbour presses on it, in phases of a
    // few batches. The share of slow batches changes from run to run, so
    // the median jumps between the two speeds, while the fast side holds.
    out.insert(
        "sim_khz".into(),
        geomean_of_percentiles(&phase.batch_khz, FAST_BATCH),
    );
    out.insert(
        "runs_per_s".into(),
        geomean_of_percentiles(&phase.batch_runs_per_s, FAST_BATCH),
    );
    // Latency is read on the same fast side: over each design's fastest
    // tenth of batches, each against its design's median there before
    // they are pooled, so p90 reads how far slower batches lie above
    // typical ones, not which design is longest.
    let fast = fast_batches(&phase.design_batch_ms);
    out.insert(
        "step_p50_ms".into(),
        pooled_relative_percentile(&fast, 50.0),
    );
    out.insert(
        "step_p90_ms".into(),
        pooled_relative_percentile(&fast, 90.0),
    );
}

/// Each design's fastest tenth of batch times (at least one).
fn fast_batches(design_batch_ms: &[Vec<f64>]) -> Vec<Vec<f64>> {
    design_batch_ms
        .iter()
        .map(|times| {
            let mut sorted = times.clone();
            sorted.sort_by(f64::total_cmp);
            sorted.truncate((times.len() / 10).max(1));
            sorted
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_batches_keep_each_designs_fastest_tenth() {
        let slow_first: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        let fast = fast_batches(&[slow_first, vec![7.0, 3.0, 5.0], Vec::new()]);
        assert_eq!(fast, vec![vec![1.0, 2.0], vec![3.0], Vec::new()]);
    }
}
