//! `serve_recovery` — crash-recovery soak for the durable-session path.
//!
//! Boots the server as a *separate process* (this binary re-execs itself
//! with `--serve`), parks a population of sessions mid-run, piles
//! un-parked background load on top, and then SIGKILLs the daemon — no
//! destructors, no flushes, the crash the durable format exists for. A
//! second daemon over the same session directory must recover every
//! parked session, and resuming each one under its *original* id must
//! produce a state fingerprint bit-identical to an uninterrupted
//! in-process run of the same scenario.
//!
//! ```text
//! serve_recovery [--sessions N] [--vcycles-before V] [--vcycles-after V]
//!                [--workers W] [--json PATH]
//! serve_recovery --serve --dir PATH [--workers W]   (internal child mode)
//! ```
//!
//! The committed baseline is BENCH_recovery.json; scripts/bench_gate.py
//! gates fresh runs with `--recovery-fresh/--recovery-baseline`
//! (recovered-session count exactly, recovery time one-sided).

use std::io::BufRead;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use manticore::prelude::*;
use manticore_bench::json::Val;
use manticore_bench::{fmt, reject_unknown_args, take_flag};
use manticore_serve::client::Client;
use manticore_serve::proto::{Reply, Request, ResumeReq, SubmitNetlistReq, SubmitReq};
use manticore_serve::server::{Server, ServerConfig};
use manticore_serve::wire::encode_netlist;

/// (design, poked register) — sessions cycle through these.
const DESIGNS: [(&str, &str); 4] = [
    ("counter", "count"),
    ("accum", "acc"),
    ("lfsr", "lfsr"),
    ("toggle", "edges"),
];

/// Every fifth session is submitted as an inline wire netlist instead of
/// a catalog name, so recovery's recompile-from-the-stored-netlist arm
/// is exercised alongside the catalog-lookup arm.
const WIRE_GRID: usize = 4;

enum Kind {
    Catalog(&'static str),
    Wire,
}

fn scenario(i: u64) -> (Kind, &'static str, u64) {
    let poke = (i + 1) * 13;
    if i % 5 == 4 {
        (Kind::Wire, "count", poke)
    } else {
        let (design, reg) = DESIGNS[(i as usize) % DESIGNS.len()];
        (Kind::Catalog(design), reg, poke)
    }
}

/// The design behind every wire-submitted session: the catalog counter's
/// netlist, shipped inline at [`WIRE_GRID`].
fn wire_netlist() -> manticore::netlist::Netlist {
    manticore_serve::catalog::lookup("counter", None)
        .expect("catalog counter")
        .0
}

/// Child mode: serve on an ephemeral port with a durable session
/// directory, print the port, and run until killed.
fn serve_mode(dir: PathBuf, workers: usize) -> ! {
    let cfg = ServerConfig {
        workers,
        session_dir: Some(dir),
        session_ttl: Duration::from_secs(600),
        ..ServerConfig::default()
    };
    let mut server = Server::bind("127.0.0.1:0", cfg).expect("child bind");
    // The parent parses this line; everything else goes to stderr.
    println!("PORT {}", server.local_addr().port());
    server.shutdown_when_requested();
    std::process::exit(0);
}

/// Spawns the daemon child and returns (child, addr) once it is
/// accepting — for the restarted daemon that also means every durable
/// session has been recovered, since recovery runs before the accept
/// loop starts.
fn spawn_daemon(dir: &Path, workers: usize) -> (Child, SocketAddr) {
    let exe = std::env::current_exe().expect("own path");
    let mut child = Command::new(exe)
        .args([
            "--serve",
            "--dir",
            dir.to_str().expect("utf-8 temp dir"),
            "--workers",
            &workers.to_string(),
        ])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn daemon");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = std::io::BufReader::new(stdout).lines();
    let port: u16 = loop {
        let line = lines
            .next()
            .expect("daemon printed its port")
            .expect("readable stdout");
        if let Some(port) = line.strip_prefix("PORT ") {
            break port.trim().parse().expect("port number");
        }
    };
    // Keep draining stdout so the child never blocks on a full pipe.
    std::thread::spawn(move || for _ in lines {});
    (child, format!("127.0.0.1:{port}").parse().expect("addr"))
}

fn expect_result(reply: Reply) -> manticore_serve::proto::JobResult {
    match reply {
        Reply::Result(r) => r,
        other => panic!("expected a result, got {other:?}"),
    }
}

/// Ground truth: the scenario run in-process, uninterrupted.
fn direct_fingerprint(kind: &Kind, poke: (&str, u64), vcycles: u64) -> String {
    let (netlist, config) = match kind {
        Kind::Catalog(design) => {
            manticore_serve::catalog::lookup(design, None).expect("catalog design")
        }
        Kind::Wire => (
            wire_netlist(),
            MachineConfig::with_grid(WIRE_GRID, WIRE_GRID),
        ),
    };
    let fleet = FleetSim::compile_with(
        &netlist,
        &CompileOptions {
            config,
            ..Default::default()
        },
        2,
    )
    .expect("compiles");
    let job = fleet.job(vcycles).with_reg(poke.0, poke.1).expect("reg");
    let run = fleet.run_ganged(vec![job], 1).pop().expect("one run");
    assert!(run.result.is_ok());
    format!("{:#018x}", run.sim().machine().state_fingerprint())
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(pos) = args.iter().position(|a| a == "--serve") {
        args.remove(pos);
        let dir = PathBuf::from(take_flag(&mut args, "--dir").expect("--serve needs --dir"));
        let workers: usize = take_flag(&mut args, "--workers")
            .map(|v| v.parse().expect("--workers"))
            .unwrap_or(2);
        serve_mode(dir, workers);
    }

    let sessions: u64 = take_flag(&mut args, "--sessions")
        .map(|v| v.parse().expect("--sessions"))
        .unwrap_or(8);
    let vcycles_before: u64 = take_flag(&mut args, "--vcycles-before")
        .map(|v| v.parse().expect("--vcycles-before"))
        .unwrap_or(30);
    let vcycles_after: u64 = take_flag(&mut args, "--vcycles-after")
        .map(|v| v.parse().expect("--vcycles-after"))
        .unwrap_or(70);
    let workers: usize = take_flag(&mut args, "--workers")
        .map(|v| v.parse().expect("--workers"))
        .unwrap_or(2);
    let json_path = take_flag(&mut args, "--json");
    reject_unknown_args(&args);

    let dir = std::env::temp_dir().join(format!("manticore-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Ground truth first, so nothing about the service influences it.
    let want: Vec<String> = (0..sessions)
        .map(|i| {
            let (kind, reg, poke) = scenario(i);
            direct_fingerprint(&kind, (reg, poke), vcycles_before + vcycles_after)
        })
        .collect();

    // Daemon #1: park the sessions.
    let (mut daemon, addr) = spawn_daemon(&dir, workers);
    let mut client = Client::connect(addr).expect("connect daemon");
    let mut ids = Vec::new();
    for i in 0..sessions {
        let (kind, reg, poke) = scenario(i);
        let request = match kind {
            Kind::Catalog(design) => Request::Submit(SubmitReq {
                id: i,
                design: design.into(),
                grid: None,
                vcycles: vcycles_before,
                pokes: vec![(reg.to_string(), poke)],
                reads: vec![],
                deadline_ms: None,
                park: true,
            }),
            Kind::Wire => Request::SubmitNetlist(SubmitNetlistReq {
                id: i,
                netlist: encode_netlist(&wire_netlist()),
                grid: Some(WIRE_GRID),
                vcycles: vcycles_before,
                pokes: vec![(reg.to_string(), poke)],
                reads: vec![],
                deadline_ms: None,
                park: true,
            }),
        };
        let r = expect_result(client.call(&request).expect("park call"));
        ids.push(r.session.expect("parked"));
    }

    // Background load with no replies read, so the daemon dies with its
    // pipeline full — the messy crash, not a quiesced one.
    let mut load = Client::connect(addr).expect("load conn");
    for i in 0..200u64 {
        load.send(&Request::Submit(SubmitReq {
            id: 10_000 + i,
            design: "counter".into(),
            grid: None,
            vcycles: 500,
            pokes: vec![],
            reads: vec!["count".into()],
            deadline_ms: None,
            park: false,
        }))
        .expect("load send");
    }
    std::thread::sleep(Duration::from_millis(50)); // load is mid-flight

    // SIGKILL: no Drop runs, no socket close handshake, nothing.
    daemon.kill().expect("kill daemon");
    daemon.wait().expect("reap daemon");
    drop(client);
    drop(load);

    // Daemon #2: recovery happens before the port prints, so the clock
    // covers process start + recompile + checkpoint rebinding.
    let restart = Instant::now();
    let (mut daemon2, addr2) = spawn_daemon(&dir, workers);
    let mut client = Client::connect(addr2).expect("connect restarted daemon");
    let stats = client.stats().expect("stats");
    let recovery_ms = restart.elapsed().as_secs_f64() * 1e3;
    let recovered = stats
        .get("sessions")
        .and_then(|s| s.get("recovered"))
        .and_then(manticore_serve::json::Value::as_u64)
        .expect("sessions.recovered in stats");

    // Resume every session under its original id and check bit-identity.
    let mut bit_identical: u64 = 0;
    for (i, id) in ids.iter().enumerate() {
        let r = expect_result(
            client
                .call(&Request::Resume(ResumeReq {
                    id: 20_000 + i as u64,
                    session: id.clone(),
                    vcycles: vcycles_after,
                    pokes: vec![],
                    reads: vec![],
                    park: false,
                }))
                .expect("resume call"),
        );
        if r.fingerprint == want[i] {
            bit_identical += 1;
        } else {
            eprintln!(
                "session {id}: fingerprint {} != uninterrupted {}",
                r.fingerprint, want[i]
            );
        }
    }

    // Shut the second daemon down cleanly.
    let _ = client.call(&Request::Shutdown);
    let _ = daemon2.wait();
    let _ = std::fs::remove_dir_all(&dir);

    println!(
        "serve_recovery: {sessions} sessions parked, SIGKILL, {recovered} recovered in {} ms, \
         {bit_identical}/{sessions} bit-identical resumes",
        fmt(recovery_ms)
    );
    assert_eq!(recovered, sessions, "every parked session must recover");
    assert_eq!(
        bit_identical, sessions,
        "every recovered session must resume bit-identically"
    );

    if let Some(path) = json_path {
        let out = Val::obj(vec![
            ("bench", Val::Str("serve_recovery".into())),
            ("sessions", Val::Int(sessions)),
            ("vcycles_before", Val::Int(vcycles_before)),
            ("vcycles_after", Val::Int(vcycles_after)),
            ("workers", Val::Int(workers as u64)),
            ("recovered", Val::Int(recovered)),
            ("bit_identical", Val::Int(bit_identical)),
            ("recovery_ms", Val::Num(recovery_ms)),
        ]);
        manticore_bench::json::write(&path, &out);
        println!("wrote {path}");
    }
}
