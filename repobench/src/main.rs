//! # repobench — the repository benchmark
//!
//! One command runs one of three workloads against the public entry
//! points (`ManticoreSim` and `FleetSim` in `crates/core`, and the
//! `manticore-serve` daemon in-process over a loopback socket), checks
//! every output against ground truth, and prints each metric by name and
//! unit. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path repobench/Cargo.toml -- \
//!     --workload solo|sweep|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` runs the same timed phase twice on one set-up, first
//! untraced and then traced, and reports the per-layer metrics from the
//! traced phase plus the tracing overhead between the two. The spans are
//! written to `repobench/out/trace-<workload>-<seed>.json`.
//! `cargo test --manifest-path repobench/Cargo.toml` runs the
//! benchmark's own tests.
//!
//! ## End-to-end metrics
//!
//! Every time is host time. The box this runs on shares its cores with
//! other tenants, which slow it down by up to 2× for seconds at a time
//! (a fixed loop timed in 0.2-s slices read 167–417 ms over one minute).
//! So solo and sweep read throughput on the fast side of per-run or
//! per-batch rates (solo at [`stats::FAST`], p90; sweep, with fewer and
//! longer batches, at p98), and latency over their fastest rounds or
//! batches: the slow runs measure the neighbours, the fast ones this
//! program. Serve reads what completed over the whole phase. Serve's
//! step latencies keep their plain p50 and p90 and are the noisier
//! numbers.
//!
//! Every workload reports every metric, so `step_p50_ms` and
//! `step_p90_ms` name the unit a user of that workload waits for: one
//! design run on solo, one batch on sweep, one interactive step on serve.
//! Each is taken over at least 100 samples, except on sweep (below).
//!
//! | metric | unit | solo | sweep | serve |
//! |---|---|---|---|---|
//! | `sim_khz` | kHz | geomean over designs of each design's fast (p90) per-run rate (Vcycles / (boot + run to `$finish`)) | geomean over designs of each design's fast (p98) per-batch rate (Vcycles / batch time) | Vcycles completed (batch jobs and steps) / phase wall time |
//! | `runs_per_s` | 1/s | design runs per second of boot-plus-run time, per round, at the fast (p90) round | geomean over designs of each design's fast (p98) scenarios / batch time | batch jobs completed / phase wall time |
//! | `step_p50_ms`, `step_p90_ms` | ms | latency of one run (boot plus run to `$finish`) in the fastest fifth of rounds (at least 20 rounds, 200 runs), pooled over designs: each run relative to its design's median there, scaled by the geomean of those medians | latency of one `FleetSim::run_ganged` batch in each design's fastest tenth of batches (5-10 a design, 15-30 pooled), pooled the same way | round trip of one interactive `resume` step |
//! | `setup_s` | s | median of three set-ups: compile ten designs and freeze their programs | median of three `FleetSim::compile` set-ups | median of three daemon binds plus warm-up compiles and the first park |
//! | `peak_rss_mb` | MB | VmHWM of the process at exit | same | same |
//!
//! A latency series needs at least 100 samples so that ten lie beyond
//! p90: the timed phase runs for `--seconds` and then, if needed, until
//! every series has them (at most 1.5 × `--seconds`, which keeps a
//! run's length bounded). On solo the series that must reach 100 is the
//! rounds, so every design has 100 runs. Sweep's fast tenth of batches
//! falls short of that: a run has 160-310 batches, and the fastest tenth
//! of each design's puts only 2-3 pooled batches beyond p90. Reading
//! more of them mixed the host's slow phases back in (see `sweep.rs`).
//! `setup_s` excludes the benchmark's own ground-truth runs.
//!
//! Two more numbers are printed in the table but are not gated:
//! `fail_frac` (failed over attempted operations; the JSON line carries
//! both counts and the run exits non-zero when any failed) and
//! `manticore_khz`, the modelled grid's simulated rate `clock / VCPL`,
//! geomean over the workload's designs (exact, also reported per layer
//! as `compiler.manticore_khz`).
//!
//! ## Workloads
//!
//! - `solo`: the nine paper designs at 15×15 plus `soc` at 16×16, each
//!   compiled once. Every round boots a fresh machine per design from
//!   the shared program and runs it to `$finish` on the default
//!   micro-op engine, in one thread; the seed shuffles the design order.
//!   *Why:* the machine's solo replay path does almost all the timed
//!   work, fleet and serve sit idle, and the compiler appears only in
//!   `setup_s` — the Table 3 shape. Ground truth: `TapeSim::serial`
//!   displays and every register, computed before timing.
//! - `sweep`: bc, mm and mc at 8×8, compiled with nproc compile threads
//!   as `FleetSim::compile(.., nproc)` does; each batch of 8 scenarios
//!   pokes seeded values into the data-input registers (`nonce0..5`,
//!   `ad_0_c`/`ps_0_c`, `price0..7`) and runs to `$finish` through
//!   `FleetSim::run_ganged` with 8 lanes: one gang on a one-worker pool.
//!   Two workers were dropped: on a shared 2-CPU box two gangs side by
//!   side slowed each other about 1.4×, and both CPUs were seldom fast
//!   at once, so the fast side of two-worker batches spread 0.23-0.33
//!   (IQR over median) from run to run against 0.06-0.09 with one.
//!   `fleet.spread_ms` still streams batches of one gang per worker of
//!   an nproc pool, since one gang's lanes finish together.
//!   *Why:* the fleet pool, the gang lockstep
//!   kernels and per-job boot do the work while the solo micro-op loop
//!   is bypassed, so a solo-engine change moves `solo` and leaves `sweep`
//!   flat, and a gang-kernel change the reverse. Ground truth: two seeded
//!   scenarios per batch are re-run on a solo `ManticoreSim` after
//!   timing; read-backs, displays, `PerfCounters` and the state
//!   fingerprint must be identical.
//! - `serve`: `Server::bind("127.0.0.1:0", ..)` with the default
//!   configuration and a session directory, and two client threads, one
//!   connection each, in a closed loop. The `interactive` client
//!   (window 1) steps a parked `counter` session with
//!   `resume{vcycles: 200, park: true, reads}` like a testbench stepping
//!   a co-simulation; the `batch` client submits mm and bc at 8×8 to
//!   `$finish` with seeded pokes. *Why:* interactive traffic is all
//!   framing, dispatch and park spill; batch traffic is all admission and
//!   simulation, so a change that trades one for the other shows here.
//!   Ground truth: a `FleetSim` run of every distinct (design, poke) pair
//!   before timing, and a solo replay of the interactive steps after it.
//!
//! The batch traffic's shape is assumed, not taken from observed use;
//! each number and why it was chosen:
//! - window 8: the batch client keeps exactly enough jobs in flight to
//!   fill the default daemon's pool, `workers × lanes` of
//!   `ServerConfig::default()` (2 × 4). This window sets the head-of-line
//!   blocking the step latency measures. The repository's sustained-load
//!   harness `serve_soak` keeps 32 in flight; with mm and bc that makes a
//!   step wait about 750 ms, too long for 100 steps in a run.
//! - one job in 8 goes as `submit_netlist` with the `wire` encoding of
//!   the same design: the wire path stays a steady share of the load,
//!   and a phase's wire traffic (about 46 KB per encoding) stays well
//!   under the daemon's per-connection netlist quota (16 MiB), which is
//!   charged for a connection's whole life; each timed phase therefore
//!   opens a fresh batch connection (one job in 4 under a 32-job window
//!   exhausted it within one phase).
//! - 8 distinct poke vectors per design: they bound the ground-truth runs
//!   to one 8-lane gang per design and change nothing the daemon does,
//!   since pokes are not part of its cache key.
//!
//! ## Layers, and the end-to-end metric each should move
//!
//! Layers are crates. `core` is the facade the workloads call; `refsim`
//! and `workloads` supply ground truth and inputs only. Per-layer metrics
//! come from the traced phase; a workload reports 0 for a layer it does
//! not exercise (solo has no fleet or serve numbers, sweep no serve
//! numbers, and serve no fleet numbers: the daemon's fleet is out of the
//! benchmark's sight).
//!
//! | layer | metrics | moves | on |
//! |---|---|---|---|
//! | compiler | `compiler.compile_ms`, `compiler.<pass>_ms` (seven passes) | `setup_s` | all, most on solo |
//! | compiler | `compiler.vcpl_sum`, `compiler.instructions`, `compiler.sends`, `compiler.manticore_khz` (exact) | `manticore_khz` | solo |
//! | machine | `machine.freeze_ms`, `machine.boot_us`, `machine.validate_us`, `machine.replay_ns_per_vcycle` | `sim_khz`, `step_*` | solo |
//! | machine | `machine.{instructions,sends,messages_delivered,stall_cycles,compute_cycles}` (exact; identical under any speed-only change) | — | all |
//! | fleet | `fleet.batch_ms`, `fleet.spread_ms`, `fleet.efficiency` (base: `fleet.solo_equiv_ms`, `fleet.workers`) | `runs_per_s`, `sim_khz` | sweep |
//! | serve | `serve.lookup_us.*`, `serve.key_us.*`, `serve.wire_decode_us`, `serve.batch_rtt_ms`, `serve.batch_sim_ms` | `runs_per_s` | serve |
//! | serve | `serve.frame_us`, `serve.spill_us`, `serve.step_sim_ms`, `serve.step_overhead_ms` | `step_p50_ms`, `step_p90_ms` | serve |
//! | serve | `serve.cache_hits`, `serve.cache_misses` (exact), `serve.submitted`, `serve.completed`, `serve.rejected` | — | serve |
//!
//! `fleet.spread_ms` needs each job's completion time, which
//! `FleetSim::run_ganged` does not hand out: it comes from two batches
//! per design streamed through `Fleet::run_ganged_stream` after the
//! traced phase.
//!
//! `trace.overhead_pct` is the traced phase's `sim_khz` loss against the
//! untraced phase of the same run, in percent.
//!
//! ## Exact statistics
//!
//! `repobench/expected.json` records every simulated statistic that does
//! not depend on the seed: VCPLs, compiler instruction and send counts,
//! machine counters of every run, and the daemon's cache misses. They
//! are compared exactly, not within a bound; a mismatch is a failure.
//! A change to the modelled machine or the compiler that moves them must
//! update the file (the mismatching keys are printed).
//!
//! ## Seeds
//!
//! The seed drives every generated input: solo's design order, sweep's
//! and serve's poke values. Seeds up to 975 were used while the
//! benchmark was tuned; seed [`HELD_OUT_SEED`] was not (it served only
//! to check that traced runs complete), and is kept for confirming a
//! claimed gain on inputs nobody tuned against.
//!
//! ## Baseline observations
//!
//! Seed behaviour measured on a 2-CPU box before this benchmark existed,
//! for later performance work to cite:
//! - an unpipelined `resume` step of a 2×2 `counter` session takes a flat
//!   44 ms on an idle daemon, consistent with Nagle plus delayed ACK:
//!   `proto::write_frame` issues two writes and only the client sets
//!   `TCP_NODELAY`;
//! - the same step takes 180–280 ms at p50 once a second connection
//!   streams mm/bc jobs: the dispatcher runs one batch at a time, so a
//!   step waits behind whole batches (head-of-line blocking);
//! - admission rebuilds and hashes the catalog netlist on every submit:
//!   3.4–4.0 ms for mm/bc/noc at 8×8, against 9 µs for `counter`.
//!
//! This benchmark's own readings on that box: under its 8-job batch load
//! the step reads 164–216 ms at p50 and 268–348 ms at p90 (ten seeds),
//! and `serve.lookup_us` plus `serve.key_us` come to 3.4–4.9 ms for mm and bc
//! against about 10 µs for `counter`.

mod common;
mod expect;
mod serve;
mod solo;
mod stats;
mod sweep;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;

use manticore_serve::json::Value;

use stats::Tally;
use trace::Tracer;

/// A seed not used while the benchmark was built, for confirming gains.
pub const HELD_OUT_SEED: u64 = 9_001;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// The end-to-end metrics, printed with `--trace 0`.
const END_TO_END: [(&str, &str); 6] = [
    ("sim_khz", "kHz"),
    ("runs_per_s", "1/s"),
    ("step_p50_ms", "ms"),
    ("step_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics, printed with `--trace 1`.
const PER_LAYER: [(&str, &str); 46] = [
    ("compiler.compile_ms", "ms"),
    ("compiler.netlist-opt_ms", "ms"),
    ("compiler.lower_ms", "ms"),
    ("compiler.lir-opt_ms", "ms"),
    ("compiler.partition_ms", "ms"),
    ("compiler.custom-functions_ms", "ms"),
    ("compiler.schedule_ms", "ms"),
    ("compiler.regalloc-emit_ms", "ms"),
    ("compiler.vcpl_sum", "count"),
    ("compiler.instructions", "count"),
    ("compiler.sends", "count"),
    ("compiler.manticore_khz", "kHz"),
    ("machine.freeze_ms", "ms"),
    ("machine.boot_us", "us"),
    ("machine.validate_us", "us"),
    ("machine.replay_ns_per_vcycle", "ns"),
    ("machine.instructions", "count"),
    ("machine.sends", "count"),
    ("machine.messages_delivered", "count"),
    ("machine.stall_cycles", "count"),
    ("machine.compute_cycles", "count"),
    ("fleet.batch_ms", "ms"),
    ("fleet.spread_ms", "ms"),
    ("fleet.efficiency", "ratio"),
    ("fleet.solo_equiv_ms", "ms"),
    ("fleet.workers", "count"),
    ("serve.lookup_us.counter", "us"),
    ("serve.lookup_us.mm", "us"),
    ("serve.lookup_us.bc", "us"),
    ("serve.key_us.counter", "us"),
    ("serve.key_us.mm", "us"),
    ("serve.key_us.bc", "us"),
    ("serve.wire_decode_us", "us"),
    ("serve.frame_us", "us"),
    ("serve.spill_us", "us"),
    ("serve.step_sim_ms", "ms"),
    ("serve.step_overhead_ms", "ms"),
    ("serve.batch_rtt_ms", "ms"),
    ("serve.batch_sim_ms", "ms"),
    ("serve.cache_hits", "count"),
    ("serve.cache_misses", "count"),
    ("serve.submitted", "count"),
    ("serve.completed", "count"),
    ("serve.rejected", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// How one run was asked to behave.
#[derive(Debug, Clone)]
pub struct RunCfg {
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// Length of the timed phase, seconds.
    pub seconds: f64,
    /// Run the traced phase after the untraced one.
    pub trace: bool,
}

impl RunCfg {
    /// Whether a timed phase started `elapsed` seconds ago with `samples`
    /// latency samples in its thinnest series should keep going.
    pub fn keep_timing(&self, elapsed: f64, samples: usize) -> bool {
        elapsed < self.seconds
            || (samples < stats::MIN_LATENCY_SAMPLES && elapsed < 1.5 * self.seconds)
    }
}

/// What a workload hands back.
#[derive(Debug, Default)]
pub struct Report {
    /// End-to-end metrics from the untraced phase.
    pub end_to_end: BTreeMap<String, f64>,
    /// Per-layer metrics from the traced phase (empty when untraced).
    pub per_layer: BTreeMap<String, f64>,
    /// Printed, not gated: `manticore_khz` and friends.
    pub info: Vec<(String, String)>,
    /// Every check made against ground truth.
    pub tally: Tally,
    /// Seed-independent simulated statistics, compared exactly.
    pub exact: BTreeMap<String, u64>,
}

impl Report {
    /// Closes a traced phase: records its span count and its `sim_khz`
    /// loss against the untraced phase, and writes the spans out.
    pub fn finish_trace(
        &mut self,
        traced: &BTreeMap<String, f64>,
        tracer: &Tracer,
        workload: &str,
        seed: u64,
    ) {
        let rate = |m: &BTreeMap<String, f64>| m.get("sim_khz").copied().unwrap_or(f64::NAN);
        let overhead = (1.0 - rate(traced) / rate(&self.end_to_end)) * 100.0;
        self.per_layer.insert("trace.overhead_pct".into(), overhead);
        self.per_layer
            .insert("trace.spans".into(), tracer.spans().len() as f64);
        let path = out_dir().join(format!("trace-{workload}-{seed}.json"));
        let written = match tracer.dump(&path) {
            Ok(()) => path.display().to_string(),
            Err(e) => format!("not written: {e}"),
        };
        self.info.push((
            "tracing overhead".into(),
            format!(
                "{overhead:>14.4} % (sim_khz {:.4} untraced, {:.4} traced); spans: {written}",
                rate(&self.end_to_end),
                rate(traced)
            ),
        ));
    }
}

/// Where the benchmark writes its trace dumps and scratch files: inside
/// its own directory of the checkout.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn usage(msg: &str) -> ! {
    eprintln!("repobench: {msg}");
    eprintln!("usage: repobench --workload solo|sweep|serve --seed N --seconds S --trace 0|1");
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    let cfg = RunCfg {
        seed: seed.unwrap_or_else(|| usage("--seed needs an unsigned integer")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds needs a positive number")),
        trace: trace.unwrap_or_else(|| usage("--trace needs 0 or 1")),
    };
    let mut report = match workload.as_str() {
        "solo" => solo::run(&cfg),
        "sweep" => sweep::run(&cfg),
        "serve" => serve::run(&cfg),
        other => usage(&format!("unknown workload {other}")),
    };
    report
        .end_to_end
        .insert("peak_rss_mb".into(), stats::peak_rss_mb());
    let reported = if cfg.trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    let broken: Vec<String> = reported
        .iter()
        .filter(|(_, v)| !v.is_finite())
        .map(|(k, _)| k.clone())
        .collect();
    for name in broken {
        report
            .tally
            .check(false, || format!("metric {name} was not measured"));
    }
    expect::compare(&workload, &report.exact, &mut report.tally);
    print_report(&workload, &cfg, &report);
    if report.tally.failed > 0 {
        std::process::exit(1);
    }
}

/// Prints the human-readable table, then the JSON result line.
fn print_report(workload: &str, cfg: &RunCfg, report: &Report) {
    println!(
        "# repobench {workload}: seed {} (held-out seed {HELD_OUT_SEED}), {} s, trace {}, {} CPUs",
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    for (name, unit) in END_TO_END {
        if let Some(v) = report.end_to_end.get(name) {
            println!("{name:<32} {v:>14.4} {unit}");
        }
    }
    println!(
        "{:<32} {:>14.6} ratio ({} of {} operations failed)",
        "fail_frac",
        report.tally.fail_frac(),
        report.tally.failed,
        report.tally.attempted
    );
    for (name, value) in &report.info {
        println!("{name:<32} {value}");
    }
    let (names, values) = if cfg.trace {
        (&PER_LAYER[..], &report.per_layer)
    } else {
        (&END_TO_END[..], &report.end_to_end)
    };
    let metrics = names
        .iter()
        .map(|&(name, unit)| {
            let value = values.get(name).copied().unwrap_or(0.0);
            if cfg.trace {
                println!("{name:<32} {value:>14.4} {unit}");
            }
            (
                name.to_string(),
                Value::obj(vec![
                    ("value", Value::Num(value)),
                    ("unit", Value::Str(unit.into())),
                ]),
            )
        })
        .collect();
    let line = Value::obj(vec![
        ("correct", Value::Bool(report.tally.failed == 0)),
        ("attempted", Value::Int(report.tally.attempted)),
        ("failed", Value::Int(report.tally.failed)),
        ("metrics", Value::Obj(metrics)),
    ]);
    println!("{}", line.render());
}
