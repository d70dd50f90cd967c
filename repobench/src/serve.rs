//! The `serve` workload: the `manticore-serve` daemon in-process on a
//! loopback socket, driven by an interactive and a batch client.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use manticore::compiler::CompileOptions;
use manticore::fleet::FleetSim;
use manticore::isa::MachineConfig;
use manticore::machine::{save_checkpoint, PerfCounters};
use manticore::ManticoreSim;
use manticore_serve::catalog;
use manticore_serve::client::Client;
use manticore_serve::durable::{DurableStore, Envelope};
use manticore_serve::json::Value;
use manticore_serve::proto::{Reply, Request, ResumeReq, SubmitNetlistReq, SubmitReq};
use manticore_serve::server::{Server, ServerConfig};
use manticore_serve::session::SessionSource;
use manticore_serve::wire::{self, WireLimits};

use crate::common::{self, SetupRep};
use crate::stats::{percentile, tail_line, Tally};
use crate::trace::Tracer;
use crate::{out_dir, Report, RunCfg, SETUP_REPS};

/// Vcycles per interactive step.
const STEP_VCYCLES: u64 = 200;
/// Every this many batch jobs, one goes as `submit_netlist`. An assumed
/// share, not an observed one: the wire path is a steady part of the
/// load, and a phase's wire traffic (about 46 KB per mm or bc encoding)
/// stays well under the daemon's default per-connection netlist quota.
const NETLIST_EVERY: u64 = 8;
/// Distinct poke vectors per batch design. It bounds the ground-truth
/// runs (one gang of eight lanes per design) and changes nothing the
/// daemon does: pokes are not part of its cache key.
const POOL: usize = 8;
/// Jobs the batch client keeps in flight: exactly enough to fill the
/// default daemon's pool, `workers` gangs of `lanes` jobs. An assumed
/// load, not an observed one; the repository's sustained-load harness
/// (`serve_soak`) keeps 32 in flight, which with mm and bc makes a step
/// wait some 750 ms and leaves too few steps for a p90 in a run.
fn window() -> usize {
    let cfg = ServerConfig::default();
    cfg.workers * cfg.lanes
}

/// The batch designs, at the catalog's default 8×8 grid.
const BATCH_DESIGNS: [&str; 2] = ["mm", "bc"];
const GRID: usize = 8;

/// A batch design: its wire encoding, inputs and the expected reply of
/// every pooled input vector.
struct BatchDesign {
    name: &'static str,
    netlist: Value,
    inputs: Vec<String>,
    checksum: &'static str,
    budget: u64,
    pool: Vec<Vec<u64>>,
    expected: Vec<Expected>,
    fleet: FleetSim,
    reference: PerfCounters,
}

/// What the daemon must answer for one job.
struct Expected {
    vcycles: u64,
    checksum: u64,
    fingerprint: String,
    displays: Vec<String>,
}

/// A running daemon and its two connections.
struct Daemon {
    server: Server,
    dir: PathBuf,
    interactive: Client,
    batch: Client,
    session: String,
}

impl Daemon {
    /// Shuts the daemon down and removes its session directory.
    fn stop(self) {
        let Daemon { server, dir, .. } = self;
        drop(server);
        remove(&dir);
    }
}

fn submit(
    id: u64,
    design: &str,
    vcycles: u64,
    pokes: Vec<(String, u64)>,
    reads: Vec<String>,
    park: bool,
) -> Request {
    Request::Submit(SubmitReq {
        id,
        design: design.into(),
        grid: None,
        vcycles,
        pokes,
        reads,
        deadline_ms: None,
        park,
    })
}

fn resume(id: u64, session: &str) -> Request {
    Request::Resume(ResumeReq {
        id,
        session: session.into(),
        vcycles: STEP_VCYCLES,
        pokes: Vec::new(),
        reads: vec!["count".into()],
        park: true,
    })
}

/// Binds a daemon, warms its cache with every design the traffic uses
/// (including the wire path), and parks the interactive session after a
/// first step from `start`.
fn setup(
    rep: &mut SetupRep,
    dir: PathBuf,
    designs: &[BatchDesign],
    start: u64,
) -> Result<Daemon, String> {
    let t = Instant::now();
    let cfg = ServerConfig {
        session_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).map_err(|e| format!("bind: {e}"))?;
    let connect = || Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"));
    let (mut interactive, mut batch) = (connect()?, connect()?);
    for (i, d) in designs.iter().enumerate() {
        let warm = [
            submit(i as u64, d.name, 1, Vec::new(), Vec::new(), false),
            netlist_submit(i as u64, d, 1, Vec::new()),
        ];
        for req in warm {
            match batch.call(&req).map_err(|e| e.to_string())? {
                Reply::Result(_) => {}
                other => return Err(format!("warm-up of {}: {other:?}", d.name)),
            }
        }
    }
    let first = submit(
        0,
        "counter",
        STEP_VCYCLES,
        vec![("count".into(), start)],
        vec!["count".into()],
        true,
    );
    let session = match interactive.call(&first).map_err(|e| e.to_string())? {
        Reply::Result(r) => r.session.ok_or("counter was not parked")?,
        other => return Err(format!("parking the counter: {other:?}")),
    };
    rep.total_s = t.elapsed().as_secs_f64();
    Ok(Daemon {
        server,
        dir,
        interactive,
        batch,
        session,
    })
}

fn netlist_submit(id: u64, d: &BatchDesign, vcycles: u64, pokes: Vec<(String, u64)>) -> Request {
    Request::SubmitNetlist(SubmitNetlistReq {
        id,
        netlist: d.netlist.clone(),
        grid: Some(GRID),
        vcycles,
        pokes,
        reads: vec![d.checksum.into()],
        deadline_ms: None,
        park: false,
    })
}

/// Compiles the batch designs on a `FleetSim` and runs every pooled input
/// vector there: the expected replies.
fn batch_designs(seed: u64, compile: &mut SetupRep, tally: &mut Tally) -> Vec<BatchDesign> {
    let mut rng = common::rng(seed, 4);
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out = Vec::new();
    for name in BATCH_DESIGNS {
        let (netlist, config) =
            catalog::lookup(name, None).expect("batch designs are in the catalog");
        let w = manticore::workloads::by_name(name).expect("batch designs are workloads");
        let options = CompileOptions {
            config: config.clone(),
            compile_threads: workers,
            ..CompileOptions::default()
        };
        let output = compile.compile(&netlist, &options);
        let fleet = compile.freeze(|| {
            FleetSim::from_output(output, config, workers).expect("compiled designs load")
        });
        let (inputs, checksum) = common::stimulus(name);
        let budget = 2 * w.bench_cycles;
        let pool: Vec<Vec<u64>> = (0..POOL)
            .map(|_| inputs.iter().map(|_| rng.next_u64() & 0xffff).collect())
            .collect();
        let jobs = pool
            .iter()
            .map(|p| {
                inputs
                    .iter()
                    .zip(p)
                    .fold(fleet.job(budget), |job, (r, &v)| {
                        job.with_reg(r, v).expect("batch inputs exist")
                    })
            })
            .collect();
        let mut expected = Vec::new();
        let mut reference = PerfCounters::default();
        for run in fleet.run_ganged(jobs, POOL) {
            let ok = run.result.as_ref().is_ok_and(|r| r.finished) && run.sim.is_some();
            tally.check(ok, || {
                format!("serve {name}: reference job {} failed", run.index)
            });
            let (Ok(result), Some(sim)) = (run.result, run.sim) else {
                // A reply can never match this.
                expected.push(Expected {
                    vcycles: u64::MAX,
                    checksum: u64::MAX,
                    fingerprint: String::new(),
                    displays: Vec::new(),
                });
                continue;
            };
            reference = common::input_independent(&sim.machine().counters());
            expected.push(Expected {
                vcycles: result.vcycles_run,
                checksum: sim
                    .read_rtl_reg_by_name(checksum)
                    .map_or(u64::MAX, |b| b.to_u64()),
                fingerprint: format!("{:#018x}", sim.machine().state_fingerprint()),
                displays: sim.all_displays().to_vec(),
            });
        }
        out.push(BatchDesign {
            name,
            netlist: wire::encode_netlist(&netlist),
            inputs,
            checksum,
            budget,
            pool,
            expected,
            fleet,
            reference,
        });
    }
    out
}

/// What one timed phase measured.
#[derive(Default)]
struct Phase {
    wall_s: f64,
    step_rtt_ms: Vec<f64>,
    /// (count read back, fingerprint) after each step.
    steps: Vec<(Option<u64>, String)>,
    batch: BatchSide,
    tally: Tally,
}

/// What the batch client saw.
#[derive(Default)]
struct BatchSide {
    rtt_ms: Vec<f64>,
    /// Vcycles of each job that completed correctly.
    jobs: Vec<u64>,
    tally: Tally,
}

/// Drives both clients until the phase is over.
fn timed(
    cfg: &RunCfg,
    daemon: &mut Daemon,
    designs: &[BatchDesign],
    tracer: &Tracer,
    salt: u64,
) -> Phase {
    let stop = AtomicBool::new(false);
    let mut phase = Phase::default();
    // The daemon charges `submit_netlist` bytes to a connection for its
    // whole life, so each phase's batch traffic gets a connection of its
    // own.
    match Client::connect(daemon.server.local_addr()) {
        Ok(fresh) => daemon.batch = fresh,
        Err(e) => phase
            .tally
            .check(false, || format!("serve batch connect: {e}")),
    }
    let start = Instant::now();
    let Daemon {
        interactive,
        batch,
        session,
        ..
    } = daemon;
    std::thread::scope(|scope| {
        let stop = &stop;
        let batch_side = scope.spawn(move || {
            let mut side = BatchSide::default();
            drive_batch(cfg, batch, designs, tracer, stop, salt, &mut side);
            side
        });
        drive_interactive(cfg, interactive, session, tracer, start, &mut phase);
        stop.store(true, Ordering::Relaxed);
        phase.batch = batch_side.join().expect("batch client panicked");
    });
    phase.tally.merge(phase.batch.tally);
    phase.wall_s = start.elapsed().as_secs_f64();
    phase
}

/// The interactive client: one `resume` step at a time, parked again
/// after each.
fn drive_interactive(
    cfg: &RunCfg,
    client: &mut Client,
    session: &mut String,
    tracer: &Tracer,
    start: Instant,
    phase: &mut Phase,
) {
    let mut id = 0u64;
    while cfg.keep_timing(start.elapsed().as_secs_f64(), phase.step_rtt_ms.len()) {
        let span = tracer.open("serve.step", None, id);
        let t = Instant::now();
        let reply = client.call(&resume(id, session));
        phase.step_rtt_ms.push(t.elapsed().as_secs_f64() * 1e3);
        tracer.close(span);
        let result = match reply {
            Ok(Reply::Result(r)) => r,
            other => {
                phase
                    .tally
                    .check(false, || format!("serve step {id}: {other:?}"));
                return;
            }
        };
        let ok = result.outcome == "budget" && result.vcycles_run == STEP_VCYCLES;
        phase.tally.check(ok, || {
            format!(
                "serve step {id}: {} after {} vcycles",
                result.outcome, result.vcycles_run
            )
        });
        let count = result
            .regs
            .iter()
            .find(|(r, _)| r == "count")
            .map(|&(_, v)| v);
        phase.steps.push((count, result.fingerprint));
        let Some(next) = result.session else {
            phase
                .tally
                .check(false, || format!("serve step {id}: session not parked"));
            return;
        };
        *session = next;
        id += 1;
    }
}

/// The batch client: keeps [`window`] jobs in flight until told to stop, then
/// drains.
fn drive_batch(
    cfg: &RunCfg,
    client: &mut Client,
    designs: &[BatchDesign],
    tracer: &Tracer,
    stop: &AtomicBool,
    salt: u64,
    side: &mut BatchSide,
) {
    let mut rng = common::rng(cfg.seed, salt);
    let window = window();
    let mut in_flight: HashMap<u64, (Instant, usize, usize, Option<usize>)> = HashMap::new();
    let mut next = 0u64;
    loop {
        while in_flight.len() < window && !stop.load(Ordering::Relaxed) {
            let d = (next % designs.len() as u64) as usize;
            let design = &designs[d];
            let k = rng.gen_range(0..POOL);
            let pokes = design
                .inputs
                .iter()
                .cloned()
                .zip(design.pool[k].iter().copied())
                .collect();
            let req = if next % NETLIST_EVERY == NETLIST_EVERY - 1 {
                netlist_submit(next, design, design.budget, pokes)
            } else {
                submit(
                    next,
                    design.name,
                    design.budget,
                    pokes,
                    vec![design.checksum.into()],
                    false,
                )
            };
            let span = tracer.open("serve.batch_job", None, next);
            if let Err(e) = client.send(&req) {
                side.tally.check(false, || format!("serve batch send: {e}"));
                return;
            }
            in_flight.insert(next, (Instant::now(), d, k, span));
            next += 1;
        }
        if in_flight.is_empty() {
            return;
        }
        let reply = match client.recv() {
            Ok(Some(reply)) => reply,
            other => {
                side.tally
                    .check(false, || format!("serve batch recv: {other:?}"));
                return;
            }
        };
        let id = match &reply {
            Reply::Result(r) => r.id,
            Reply::Reject { id, .. } => *id,
            Reply::Error { id, .. } => id.unwrap_or(u64::MAX),
            _ => u64::MAX,
        };
        let Some((sent, d, k, span)) = in_flight.remove(&id) else {
            side.tally
                .check(false, || format!("serve batch: unexpected reply {reply:?}"));
            return;
        };
        side.rtt_ms.push(sent.elapsed().as_secs_f64() * 1e3);
        tracer.close(span);
        let want = &designs[d].expected[k];
        let ok = matches!(&reply, Reply::Result(r) if r.outcome == "complete"
            && r.vcycles_run == want.vcycles
            && r.regs == [(designs[d].checksum.to_string(), want.checksum)]
            && r.fingerprint == want.fingerprint
            && r.displays == want.displays);
        side.tally.check(ok, || {
            format!(
                "serve {} job {id}: {reply:?} differs from the FleetSim run",
                designs[d].name
            )
        });
        if ok {
            side.jobs.push(want.vcycles);
        }
    }
}

/// Replays the phase's steps on the interactive session's solo twin (the
/// same counter, stepped the same way on a `ManticoreSim`) and checks
/// each reply.
fn check_steps(phase: &mut Phase, twin: &mut ManticoreSim, tracer: &Tracer) {
    for (i, (count, fingerprint)) in phase.steps.iter().enumerate() {
        let ran = tracer.span("serve.step_sim", None, i as u64, || twin.run(STEP_VCYCLES));
        let ok = ran.is_ok_and(|r| r.vcycles_run == STEP_VCYCLES)
            && *count == twin.read_rtl_reg_by_name("count").map(|b| b.to_u64())
            && *fingerprint == format!("{:#018x}", twin.machine().state_fingerprint());
        phase
            .tally
            .check(ok, || format!("serve step {i}: differs from the solo twin"));
    }
}

/// Mean time of `f` over `n` calls, in µs.
fn mean_us(n: u32, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..n {
        f();
    }
    t.elapsed().as_secs_f64() * 1e6 / f64::from(n)
}

/// Microbenchmarks of the public functions the daemon calls on its hot
/// paths, traced as spans.
fn microbenchmarks(
    designs: &[BatchDesign],
    twin: &ManticoreSim,
    tracer: &Tracer,
    out: &mut BTreeMap<String, f64>,
) {
    for name in ["counter", "mm", "bc"] {
        let lookup = tracer.span("serve.lookup", None, 0, || {
            mean_us(5, || {
                std::hint::black_box(catalog::lookup(name, None));
            })
        });
        let (netlist, config) = catalog::lookup(name, None).expect("catalog design");
        let key = tracer.span("serve.key", None, 0, || {
            mean_us(5, || {
                std::hint::black_box(catalog::netlist_hash(&netlist, &config));
            })
        });
        out.insert(format!("serve.lookup_us.{name}"), lookup);
        out.insert(format!("serve.key_us.{name}"), key);
    }
    let limits = WireLimits::default();
    let decode = tracer.span("serve.wire_decode", None, 0, || {
        mean_us(4, || {
            for d in designs {
                std::hint::black_box(
                    wire::decode_netlist(&d.netlist, &limits).expect("own encoding decodes"),
                );
            }
        })
    });
    out.insert("serve.wire_decode_us".into(), decode / designs.len() as f64);
    let req = resume(1, "s-1");
    let frame = tracer.span("serve.frame", None, 0, || {
        mean_us(2_000, || {
            let text = req.to_value().render();
            let back = Value::parse(&text).expect("own frame parses");
            std::hint::black_box(Request::from_value(&back).expect("own request parses"));
        })
    });
    out.insert("serve.frame_us".into(), frame);
    let dir = out_dir().join(format!("spill-{}", std::process::id()));
    if let Ok(store) = DurableStore::open(&dir) {
        let spill = tracer.span("serve.spill", None, 0, || {
            mean_us(50, || {
                let env = Envelope {
                    id: "s-1".into(),
                    source: SessionSource::Catalog {
                        name: "counter".into(),
                        grid: 2,
                    },
                    checkpoint: save_checkpoint(&twin.checkpoint()),
                };
                store.save(&env).expect("spill directory is writable");
            })
        });
        out.insert("serve.spill_us".into(), spill);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The daemon's counters from the `stats` op.
fn daemon_stats(
    client: &mut Client,
    out: &mut BTreeMap<String, f64>,
    exact: &mut BTreeMap<String, u64>,
) -> Result<(), String> {
    let stats = client.stats().map_err(|e| e.to_string())?;
    let get = |path: &[&str]| {
        path.iter()
            .try_fold(&stats, |v, k| v.get(k))
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("stats has no {}", path.join(".")))
    };
    let misses = get(&["cache", "misses"])?;
    exact.insert("serve.daemon.cache_misses".into(), misses);
    for (name, path) in [
        ("serve.cache_hits", &["cache", "hits"][..]),
        ("serve.cache_misses", &["cache", "misses"][..]),
        ("serve.submitted", &["jobs_submitted"][..]),
        ("serve.completed", &["jobs_completed"][..]),
        ("serve.rejected", &["jobs_rejected"][..]),
    ] {
        out.insert(name.into(), get(path)? as f64);
    }
    Ok(())
}

fn session_dir(rep: usize) -> PathBuf {
    out_dir().join(format!("sessions-{}-{rep}", std::process::id()))
}

fn remove(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// Runs the `serve` workload.
pub fn run(cfg: &RunCfg) -> Report {
    let mut report = Report::default();
    let mut compile = SetupRep::default();
    let designs = batch_designs(cfg.seed, &mut compile, &mut report.tally);
    let (counter_net, counter_cfg) =
        catalog::lookup("counter", None).expect("counter is in the catalog");
    let counter_out = compile.compile(
        &counter_net,
        &CompileOptions {
            config: counter_cfg.clone(),
            ..CompileOptions::default()
        },
    );
    let start = common::rng(cfg.seed, 6).next_u64() & 0xffff;
    let mut twin = ManticoreSim::from_output(Arc::clone(&counter_out), counter_cfg.clone())
        .expect("counter loads");
    twin.write_rtl_reg_by_name("count", start);
    let _ = twin.run(STEP_VCYCLES);

    let grid = MachineConfig::with_grid(GRID, GRID);
    let mut rows = vec![("counter", &counter_cfg, counter_out.as_ref())];
    rows.extend(
        designs
            .iter()
            .map(|d| (d.name, &grid, d.fleet.output().as_ref())),
    );
    let khz = common::compile_exact("serve", &rows, &mut report.exact, &mut report.per_layer);
    report.info.push((
        "manticore_khz".into(),
        format!("{khz:>14.4} kHz (simulated)"),
    ));
    for d in &designs {
        crate::expect::counters(
            &mut report.exact,
            &format!("serve.{}.job", d.name),
            &d.reference,
        );
    }
    report
        .exact
        .retain(|k, _| !k.ends_with("stall_cycles") && !k.ends_with("exceptions"));

    let mut reps: Vec<SetupRep> = (0..SETUP_REPS).map(|_| SetupRep::default()).collect();
    let mut daemon: Option<Daemon> = None;
    for (i, rep) in reps.iter_mut().enumerate() {
        if let Some(old) = daemon.take() {
            old.stop();
        }
        match setup(rep, session_dir(i), &designs, start) {
            Ok(d) => daemon = Some(d),
            Err(e) => {
                report.tally.check(false, || format!("serve set-up: {e}"));
                remove(&session_dir(i));
                return report;
            }
        }
    }
    let mut daemon = daemon.expect("set-up ran");

    let untraced = Tracer::new(false);
    let mut phase = timed(cfg, &mut daemon, &designs, &untraced, 5);
    check_steps(&mut phase, &mut twin, &untraced);
    metrics(&phase, &mut report.end_to_end);
    report.tally.merge(phase.tally);
    // The compiler metrics come from the benchmark's own compiles (the
    // daemon's happen out of sight); `setup_s` from the daemon set-ups.
    common::setup_metrics(&[compile], &mut BTreeMap::new(), &mut report.per_layer);
    let setup_s: Vec<f64> = reps.iter().map(|r| r.total_s).collect();
    report
        .end_to_end
        .insert("setup_s".into(), crate::stats::median(&setup_s));
    report
        .info
        .push(("step latency".into(), tail_line(&phase.step_rtt_ms)));
    report.info.push((
        "traffic".into(),
        format!(
            "{} steps, {} batch jobs in {:.2} s",
            phase.step_rtt_ms.len(),
            phase.batch.jobs.len(),
            phase.wall_s
        ),
    ));

    if cfg.trace {
        let tracer = Tracer::new(true);
        let mut traced = timed(cfg, &mut daemon, &designs, &tracer, 7);
        check_steps(&mut traced, &mut twin, &tracer);
        let mut traced_e2e = BTreeMap::new();
        metrics(&traced, &mut traced_e2e);
        report.tally.merge(traced.tally);
        let out = &mut report.per_layer;
        let step_sim_ms = tracer.mean_ns("serve.step_sim") / 1e6;
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        out.insert("serve.step_sim_ms".into(), step_sim_ms);
        out.insert(
            "serve.step_overhead_ms".into(),
            mean(&traced.step_rtt_ms) - step_sim_ms,
        );
        out.insert("serve.batch_rtt_ms".into(), mean(&traced.batch.rtt_ms));
        // One solo run per pooled input vector: the simulation inside a
        // batch job, without the daemon around it.
        let mut batch_sim_ms = Vec::new();
        for d in &designs {
            for (k, pokes) in d.pool.iter().enumerate() {
                let pokes: Vec<(&str, u64)> = d
                    .inputs
                    .iter()
                    .map(String::as_str)
                    .zip(pokes.iter().copied())
                    .collect();
                let run = common::run_solo(
                    &tracer,
                    None,
                    k as u64,
                    d.fleet.program(),
                    d.fleet.output(),
                    &pokes,
                    d.budget,
                );
                let ok = run.as_ref().is_ok_and(|(sim, ..)| {
                    format!("{:#018x}", sim.machine().state_fingerprint())
                        == d.expected[k].fingerprint
                });
                report.tally.check(ok, || {
                    format!("serve {} input {k}: solo and fleet runs differ", d.name)
                });
                if let Ok((.., secs)) = run {
                    batch_sim_ms.push(secs * 1e3);
                }
            }
        }
        out.insert("serve.batch_sim_ms".into(), mean(&batch_sim_ms));
        microbenchmarks(&designs, &twin, &tracer, out);
        common::machine_timing(&tracer, out);
        report.finish_trace(&traced_e2e, &tracer, "serve", cfg.seed);
    }
    if let Err(e) = daemon_stats(
        &mut daemon.interactive,
        &mut report.per_layer,
        &mut report.exact,
    ) {
        report.tally.check(false, || format!("serve stats: {e}"));
    }
    common::machine_counts(designs.iter().map(|d| &d.reference), &mut report.per_layer);
    daemon.stop();
    report
}

/// Throughput is what completed over the whole phase, drain included.
fn metrics(phase: &Phase, out: &mut BTreeMap<String, f64>) {
    let steps = phase.steps.len() as u64 * STEP_VCYCLES;
    let vcycles = phase.batch.jobs.iter().sum::<u64>() + steps;
    out.insert("sim_khz".into(), vcycles as f64 / phase.wall_s / 1e3);
    out.insert(
        "runs_per_s".into(),
        phase.batch.jobs.len() as f64 / phase.wall_s,
    );
    out.insert("step_p50_ms".into(), percentile(&phase.step_rtt_ms, 50.0));
    out.insert("step_p90_ms".into(), percentile(&phase.step_rtt_ms, 90.0));
}
