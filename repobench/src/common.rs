//! Calls into the compiler and machine layers that every workload makes,
//! with their timing, spans and per-layer metrics.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use manticore::compiler::{compile, CompileOptions, CompileOutput};
use manticore::isa::MachineConfig;
use manticore::machine::{CompiledProgram, PerfCounters};
use manticore::netlist::Netlist;
use manticore::util::SmallRng;
use manticore::ManticoreSim;

use crate::stats::{geomean, median};
use crate::trace::{SpanId, Tracer};

/// A design's data-input registers, which a scenario pokes (no assertion
/// of the design depends on them, so any value is a valid input), and
/// the checksum register that summarises its run.
pub fn stimulus(name: &str) -> (Vec<String>, &'static str) {
    match name {
        // One nonce counter per hash pipe.
        "bc" => ((0..6).map(|p| format!("nonce{p}")).collect(), "csum"),
        // The west-edge activations and partial sums of the first row.
        "mm" => (
            (0..8)
                .flat_map(|c| [format!("ad_0_{c}"), format!("ps_0_{c}")])
                .collect(),
            "checksum",
        ),
        // Per-lane price state of the Monte-Carlo walkers.
        "mc" => ((0..8).map(|l| format!("price{l}")).collect(), "payoff_acc"),
        other => unreachable!("no stimulus table for {other}"),
    }
}

/// The seven passes of the compiler pipeline, in order.
pub const PASSES: [&str; 7] = [
    "netlist-opt",
    "lower",
    "lir-opt",
    "partition",
    "custom-functions",
    "schedule",
    "regalloc-emit",
];

/// The workload's generator for `seed`, salted per use so that two
/// streams drawn from one seed do not repeat each other.
pub fn rng(seed: u64, salt: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// The cost of one set-up: wall time, compile wall time, per-pass time
/// and program freezing, summed over the workload's designs.
#[derive(Debug, Default)]
pub struct SetupRep {
    /// Wall time of the whole set-up, seconds.
    pub total_s: f64,
    compile_ms: f64,
    freeze_ms: f64,
    pass_ms: BTreeMap<&'static str, f64>,
}

impl SetupRep {
    /// Compiles `netlist` with `options`, recording the call's wall time
    /// and its per-pass times.
    pub fn compile(&mut self, netlist: &Netlist, options: &CompileOptions) -> Arc<CompileOutput> {
        let t = Instant::now();
        let output = compile(netlist, options).expect("benchmark designs compile");
        self.compile_ms += t.elapsed().as_secs_f64() * 1e3;
        for pass in &output.report.passes {
            *self.pass_ms.entry(pass.name).or_default() += pass.duration.as_secs_f64() * 1e3;
        }
        Arc::new(output)
    }

    /// Runs `freeze`, which turns a compile output into a shareable
    /// machine program, and records its time.
    pub fn freeze<T>(&mut self, freeze: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let program = freeze();
        self.freeze_ms += t.elapsed().as_secs_f64() * 1e3;
        program
    }
}

/// Fills `setup_s` and the compiler timing metrics with the median over
/// the set-up repetitions.
pub fn setup_metrics(
    reps: &[SetupRep],
    end_to_end: &mut BTreeMap<String, f64>,
    per_layer: &mut BTreeMap<String, f64>,
) {
    let med = |f: &dyn Fn(&SetupRep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    end_to_end.insert("setup_s".into(), med(&|r| r.total_s));
    per_layer.insert("compiler.compile_ms".into(), med(&|r| r.compile_ms));
    per_layer.insert("machine.freeze_ms".into(), med(&|r| r.freeze_ms));
    for pass in PASSES {
        let ms = med(&|r| r.pass_ms.get(pass).copied().unwrap_or(0.0));
        per_layer.insert(format!("compiler.{pass}_ms"), ms);
    }
}

/// The exact compiler statistics of the workload's designs: VCPL,
/// instruction and send counts per design (into `exact`) and their sums
/// plus the modelled rate (into `per_layer`). Returns `manticore_khz`.
pub fn compile_exact(
    workload: &str,
    designs: &[(&str, &MachineConfig, &CompileOutput)],
    exact: &mut BTreeMap<String, u64>,
    per_layer: &mut BTreeMap<String, f64>,
) -> f64 {
    let mut rates = Vec::new();
    let (mut vcpl, mut instrs, mut sends) = (0, 0, 0);
    for (name, config, output) in designs {
        let r = &output.report;
        exact.insert(format!("{workload}.{name}.vcpl"), r.vcpl);
        exact.insert(
            format!("{workload}.{name}.instructions"),
            r.total_instructions,
        );
        exact.insert(format!("{workload}.{name}.sends"), r.total_sends);
        vcpl += r.vcpl;
        instrs += r.total_instructions;
        sends += r.total_sends;
        rates.push(config.simulation_rate_khz(r.vcpl));
    }
    let khz = geomean(&rates);
    per_layer.insert("compiler.vcpl_sum".into(), vcpl as f64);
    per_layer.insert("compiler.instructions".into(), instrs as f64);
    per_layer.insert("compiler.sends".into(), sends as f64);
    per_layer.insert("compiler.manticore_khz".into(), khz);
    khz
}

/// The counters of a run that no input changes: data-dependent stalls
/// and host exceptions (e.g. a `$display` that fires on a match) are
/// left out.
pub fn input_independent(c: &PerfCounters) -> PerfCounters {
    PerfCounters {
        vcycles: c.vcycles,
        instructions: c.instructions,
        sends: c.sends,
        messages_delivered: c.messages_delivered,
        compute_cycles: c.compute_cycles,
        ..PerfCounters::default()
    }
}

/// Sums the machine counters of one run of each of the workload's
/// designs into the `machine.*` counts.
pub fn machine_counts<'a>(
    runs: impl IntoIterator<Item = &'a PerfCounters>,
    per_layer: &mut BTreeMap<String, f64>,
) {
    let mut total = PerfCounters::default();
    for c in runs {
        total.instructions += c.instructions;
        total.sends += c.sends;
        total.messages_delivered += c.messages_delivered;
        total.stall_cycles += c.stall_cycles;
        total.compute_cycles += c.compute_cycles;
    }
    for (name, v) in [
        ("machine.instructions", total.instructions),
        ("machine.sends", total.sends),
        ("machine.messages_delivered", total.messages_delivered),
        ("machine.stall_cycles", total.stall_cycles),
        ("machine.compute_cycles", total.compute_cycles),
    ] {
        per_layer.insert(name.into(), v as f64);
    }
}

/// The machine timing metrics from the traced solo runs.
pub fn machine_timing(tracer: &Tracer, per_layer: &mut BTreeMap<String, f64>) {
    per_layer.insert(
        "machine.boot_us".into(),
        tracer.mean_ns("machine.boot") / 1e3,
    );
    per_layer.insert(
        "machine.validate_us".into(),
        tracer.mean_ns("machine.validate") / 1e3,
    );
    per_layer.insert(
        "machine.replay_ns_per_vcycle".into(),
        tracer.total_ns("machine.replay") / tracer.counted("machine.replay_vcycles").max(1) as f64,
    );
}

/// One solo run: boot a fresh machine from `program`, poke the inputs,
/// run up to `budget` Vcycles. Traced, the first Vcycle (the interpreted
/// validation Vcycle) and the replayed rest are separate calls and spans.
/// Returns the simulation, the Vcycles run, whether `$finish` fired, and
/// the host seconds of boot plus run.
pub fn run_solo(
    tracer: &Tracer,
    parent: SpanId,
    id: u64,
    program: &Arc<CompiledProgram>,
    output: &Arc<CompileOutput>,
    pokes: &[(&str, u64)],
    budget: u64,
) -> Result<(ManticoreSim, u64, bool, f64), String> {
    let t = Instant::now();
    let mut sim = tracer.span("machine.boot", parent, id, || {
        ManticoreSim::from_program(Arc::clone(program), Arc::clone(output))
    });
    for &(name, value) in pokes {
        if !sim.write_rtl_reg_by_name(name, value) {
            return Err(format!("no register `{name}`"));
        }
    }
    let (vcycles, finished) = if tracer.on() {
        let first = tracer
            .span("machine.validate", parent, id, || sim.run(1))
            .map_err(|e| e.to_string())?;
        let rest = tracer
            .span("machine.replay", parent, id, || sim.run(budget - 1))
            .map_err(|e| e.to_string())?;
        tracer.count("machine.replay_vcycles", rest.vcycles_run);
        (
            first.vcycles_run + rest.vcycles_run,
            first.finished || rest.finished,
        )
    } else {
        let out = sim.run(budget).map_err(|e| e.to_string())?;
        (out.vcycles_run, out.finished)
    };
    Ok((sim, vcycles, finished, t.elapsed().as_secs_f64()))
}
