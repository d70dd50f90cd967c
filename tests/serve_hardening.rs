//! Hardened-serving suite: the server under hostile input.
//!
//! A live server on a loopback socket, attacked at every layer of the
//! stack — framing (hostile length prefixes, truncation), JSON (garbage,
//! depth bombs), protocol (type confusion), and admission (over-limit
//! netlists, quota exhaustion, compile deadlines) — plus the crash-safe
//! session path: park → restart → recover → resume, bit-identical to an
//! uninterrupted run. Every scenario ends the same way: the server is
//! still serving correct results.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use manticore::machine::{load_checkpoint, save_checkpoint, PersistError};
use manticore::netlist::Netlist;
use manticore::prelude::*;
use manticore_serve::client::Client;
use manticore_serve::fuzz::{run_fuzz, FuzzConfig};
use manticore_serve::json::Value;
use manticore_serve::proto::{JobResult, RejectLimit, Reply, Request, SubmitNetlistReq, SubmitReq};
use manticore_serve::server::{Server, ServerConfig};
use manticore_serve::wire::{self, WireLimits};

fn test_server(tweak: impl FnOnce(&mut ServerConfig)) -> Server {
    let mut cfg = ServerConfig {
        workers: 2,
        lanes: 2,
        session_ttl: Duration::from_secs(60),
        reaper_period: Duration::from_millis(100),
        ..ServerConfig::default()
    };
    tweak(&mut cfg);
    Server::bind("127.0.0.1:0", cfg).expect("bind loopback")
}

fn expect_result(reply: Reply) -> JobResult {
    match reply {
        Reply::Result(r) => r,
        other => panic!("expected a result, got {other:?}"),
    }
}

fn expect_reject(reply: Reply) -> (String, u64, Option<RejectLimit>) {
    match reply {
        Reply::Reject {
            reason,
            retry_after_ms,
            limit,
            ..
        } => (reason, retry_after_ms, limit),
        other => panic!("expected a reject, got {other:?}"),
    }
}

/// A server that answers a catalog submission correctly is alive and
/// sane — the post-condition of every attack below.
fn assert_still_serving(server: &Server) {
    let mut client = Client::connect(server.local_addr()).unwrap();
    let r = expect_result(
        client
            .call(&Request::Submit(SubmitReq {
                id: 999,
                design: "counter".into(),
                grid: None,
                vcycles: 10,
                pokes: vec![],
                reads: vec!["count".into()],
                deadline_ms: None,
                park: false,
            }))
            .unwrap(),
    );
    assert_eq!(r.regs, vec![("count".to_string(), 10)]);
}

fn counter_netlist() -> Netlist {
    let mut b = NetlistBuilder::new("hardening_counter");
    let r = b.reg("count", 16, 0);
    let one = b.lit(1, 16);
    let next = b.add(r.q(), one);
    b.set_next(r, next);
    b.output("count", r.q());
    b.finish_build().unwrap()
}

fn submit_netlist(id: u64, netlist: Value, vcycles: u64, park: bool) -> Request {
    Request::SubmitNetlist(SubmitNetlistReq {
        id,
        netlist,
        grid: Some(4),
        vcycles,
        pokes: vec![],
        reads: vec!["count".into()],
        deadline_ms: None,
        park,
    })
}

/// Ground truth at the wire path's grid: a direct in-process run.
fn direct_wire_run(netlist: &Netlist, vcycles: u64) -> (String, u64) {
    let fleet = FleetSim::compile(netlist, MachineConfig::with_grid(4, 4), 2).expect("compiles");
    let run = fleet
        .run_ganged(vec![fleet.job(vcycles)], 1)
        .pop()
        .expect("one run");
    assert!(run.result.is_ok());
    let fingerprint = format!("{:#018x}", run.sim().machine().state_fingerprint());
    let value = run
        .sim()
        .read_rtl_reg_by_name("count")
        .expect("reg")
        .to_u64();
    (fingerprint, value)
}

// ---------------------------------------------------------------------------
// Framing and parsing under attack.

#[test]
fn hostile_length_prefixes_do_not_kill_the_server() {
    let server = test_server(|_| {});
    for prefix in [u32::MAX, 0x8000_0000, (1u32 << 24) + 1] {
        let mut raw = TcpStream::connect(server.local_addr()).unwrap();
        raw.write_all(&prefix.to_be_bytes()).unwrap();
        // The server must drop the connection without allocating the
        // claimed buffer; a closed socket reads EOF or errors.
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut sink = Vec::new();
        let _ = raw.read_to_end(&mut sink);
        assert!(sink.is_empty(), "no reply to an unframeable prefix");
    }
    assert_still_serving(&server);
}

#[test]
fn truncated_frames_do_not_kill_the_server() {
    let server = test_server(|_| {});
    for (claimed, sent) in [(1000u32, 10usize), (64, 0), (1 << 20, 100)] {
        let mut raw = TcpStream::connect(server.local_addr()).unwrap();
        raw.write_all(&claimed.to_be_bytes()).unwrap();
        raw.write_all(&vec![b'x'; sent]).unwrap();
        drop(raw); // the rest of the frame never arrives
    }
    assert_still_serving(&server);
}

#[test]
fn a_json_depth_bomb_is_an_error_not_a_stack_overflow() {
    let server = test_server(|_| {});
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    let mut text = String::from("{\"op\":");
    for _ in 0..100_000 {
        text.push('[');
    }
    for _ in 0..100_000 {
        text.push(']');
    }
    text.push('}');
    raw.write_all(&(text.len() as u32).to_be_bytes()).unwrap();
    raw.write_all(text.as_bytes()).unwrap();
    // Parse error → error reply (or connection close); never a crash.
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut sink = [0u8; 64];
    let _ = raw.read(&mut sink);
    assert_still_serving(&server);
}

#[test]
fn type_confused_requests_get_error_replies_on_a_live_connection() {
    let server = test_server(|_| {});
    let mut client = Client::connect(server.local_addr()).unwrap();
    let corpus = vec![
        Value::obj(vec![("op", Value::Int(7))]),
        Value::obj(vec![
            ("op", Value::Str("submit".into())),
            ("id", Value::Str("NaN".into())),
            ("design", Value::Str("counter".into())),
            ("vcycles", Value::Int(1)),
        ]),
        Value::obj(vec![
            ("op", Value::Str("submit_netlist".into())),
            ("id", Value::Int(1)),
            ("netlist", Value::Str("not an object".into())),
            ("vcycles", Value::Int(1)),
        ]),
        Value::Arr(vec![Value::Str("stats".into())]),
        Value::Bool(true),
    ];
    for (i, frame) in corpus.into_iter().enumerate() {
        match client.call_value(&frame).unwrap() {
            Reply::Error { .. } => {}
            other => panic!("frame {i}: expected an error reply, got {other:?}"),
        }
    }
    assert_still_serving(&server);
}

// ---------------------------------------------------------------------------
// Netlist admission limits — one negative test per limit.

#[test]
fn every_wire_limit_rejects_with_its_name_before_compiling() {
    // Tiny limits so the offending payloads stay tiny too.
    let limits = WireLimits {
        grid_cores: 16,
        nets: 4,
        registers: 2,
        memories: 1,
        memory_words: 64,
        outputs: 2,
        displays: 1,
        expects: 1,
        finishes: 1,
        netlist_bytes: 4096,
    };
    let server = test_server(|cfg| cfg.wire_limits = limits);
    let mut client = Client::connect(server.local_addr()).unwrap();

    let arr_of = |n: usize, v: &Value| Value::Arr(vec![v.clone(); n]);
    let empty_obj = Value::obj(vec![]);
    let base = |field: &str, count: usize| {
        let filler = arr_of(count, &empty_obj);
        let pick = |name: &str, fallback: Value| {
            if name == field {
                filler.clone()
            } else {
                fallback
            }
        };
        Value::obj(vec![
            ("version", Value::Int(1)),
            ("name", Value::Str("over".into())),
            ("nets", pick("nets", Value::Arr(vec![]))),
            ("registers", pick("registers", Value::Arr(vec![]))),
            ("memories", pick("memories", Value::Arr(vec![]))),
            ("outputs", pick("outputs", Value::Arr(vec![]))),
            ("displays", pick("displays", Value::Arr(vec![]))),
            ("expects", pick("expects", Value::Arr(vec![]))),
            ("finishes", pick("finishes", Value::Arr(vec![]))),
        ])
    };

    let cases: Vec<(&str, Request)> = vec![
        ("nets", submit_netlist(1, base("nets", 5), 1, false)),
        (
            "registers",
            submit_netlist(2, base("registers", 3), 1, false),
        ),
        ("memories", submit_netlist(3, base("memories", 2), 1, false)),
        (
            "memory_words",
            submit_netlist(
                4,
                Value::obj(vec![
                    ("version", Value::Int(1)),
                    ("name", Value::Str("deep".into())),
                    ("nets", Value::Arr(vec![])),
                    ("registers", Value::Arr(vec![])),
                    (
                        "memories",
                        Value::Arr(vec![Value::obj(vec![
                            ("name", Value::Str("m".into())),
                            ("width", Value::Int(16)),
                            ("depth", Value::Int(65)),
                            ("init", Value::Arr(vec![])),
                            ("writes", Value::Arr(vec![])),
                        ])]),
                    ),
                    ("outputs", Value::Arr(vec![])),
                ]),
                1,
                false,
            ),
        ),
        ("outputs", submit_netlist(5, base("outputs", 3), 1, false)),
        ("displays", submit_netlist(6, base("displays", 2), 1, false)),
        ("expects", submit_netlist(7, base("expects", 2), 1, false)),
        ("finishes", submit_netlist(8, base("finishes", 2), 1, false)),
        (
            "grid_cores",
            Request::SubmitNetlist(SubmitNetlistReq {
                id: 9,
                netlist: base("", 0),
                grid: Some(5), // 25 cores > 16
                vcycles: 1,
                pokes: vec![],
                reads: vec![],
                deadline_ms: None,
                park: false,
            }),
        ),
        (
            "netlist_bytes",
            submit_netlist(10, base("nets", 0).with_padding(5000), 1, false),
        ),
    ];
    for (want_limit, request) in cases {
        let (reason, retry_after_ms, limit) = expect_reject(client.call(&request).unwrap());
        assert_eq!(reason, "netlist_limit", "limit `{want_limit}`");
        assert_eq!(retry_after_ms, 0, "limit rejects are permanent");
        let limit = limit.unwrap_or_else(|| panic!("`{want_limit}` reject must name its limit"));
        assert_eq!(limit.limit, want_limit);
        assert!(limit.got > limit.max, "{want_limit}: got > max");
    }
    // Nothing over-limit ever reached the compiler.
    assert_eq!(server.cache_stats().misses, 0);
    assert_still_serving(&server);
}

/// Pads a netlist object with an ignored string field to inflate its
/// rendered size past a byte limit.
trait Pad {
    fn with_padding(self, bytes: usize) -> Value;
}
impl Pad for Value {
    fn with_padding(self, bytes: usize) -> Value {
        match self {
            Value::Obj(mut fields) => {
                fields.push(("padding".to_string(), Value::Str("x".repeat(bytes))));
                Value::Obj(fields)
            }
            other => other,
        }
    }
}

#[test]
fn the_connection_netlist_quota_is_permanent_and_per_connection() {
    let encoded = wire::encode_netlist(&counter_netlist());
    let one_render = encoded.render().len() as u64;
    // Room for one submission, not two.
    let server = test_server(|cfg| cfg.conn_netlist_bytes = one_render + one_render / 2);

    let mut client = Client::connect(server.local_addr()).unwrap();
    let r = expect_result(
        client
            .call(&submit_netlist(1, encoded.clone(), 5, false))
            .unwrap(),
    );
    assert_eq!(r.regs, vec![("count".to_string(), 5)]);

    let (reason, retry_after_ms, limit) = expect_reject(
        client
            .call(&submit_netlist(2, encoded.clone(), 5, false))
            .unwrap(),
    );
    assert_eq!(reason, "netlist_quota");
    assert_eq!(retry_after_ms, 0, "quota rejects are permanent");
    assert_eq!(limit.unwrap().limit, "conn_netlist_bytes");

    // The quota is per-connection: a fresh connection starts clean.
    let mut fresh = Client::connect(server.local_addr()).unwrap();
    let r = expect_result(fresh.call(&submit_netlist(3, encoded, 5, false)).unwrap());
    assert_eq!(r.regs, vec![("count".to_string(), 5)]);
}

#[test]
fn a_zero_compile_deadline_rejects_untrusted_compiles_but_not_catalog_jobs() {
    let server = test_server(|cfg| cfg.compile_deadline = Some(Duration::ZERO));
    let mut client = Client::connect(server.local_addr()).unwrap();
    let encoded = wire::encode_netlist(&counter_netlist());
    let (reason, retry_after_ms, _) =
        expect_reject(client.call(&submit_netlist(1, encoded, 5, false)).unwrap());
    assert_eq!(reason, "compile_deadline");
    assert_eq!(retry_after_ms, 0);
    // Catalog designs are trusted: no deadline applies, and the server
    // is fully functional after the rejected compile.
    assert_still_serving(&server);
}

#[test]
fn a_valid_wire_netlist_is_bit_identical_to_the_direct_fleet() {
    let server = test_server(|_| {});
    let netlist = counter_netlist();
    let (want_fp, want_val) = direct_wire_run(&netlist, 50);
    let mut client = Client::connect(server.local_addr()).unwrap();
    let r = expect_result(
        client
            .call(&submit_netlist(
                1,
                wire::encode_netlist(&netlist),
                50,
                false,
            ))
            .unwrap(),
    );
    assert_eq!(r.outcome, "budget");
    assert_eq!(r.fingerprint, want_fp, "wire round-trip changes nothing");
    assert_eq!(r.regs, vec![("count".to_string(), want_val)]);
}

// ---------------------------------------------------------------------------
// The checkpoint persist format, against a real compiled program.

#[test]
fn persisted_checkpoints_resume_bit_identically() {
    let netlist = counter_netlist();
    let fleet = FleetSim::compile(&netlist, MachineConfig::with_grid(2, 2), 1).unwrap();
    let mut straight = Machine::from_program(Arc::clone(fleet.program()));
    let mut parked = Machine::from_program(Arc::clone(fleet.program()));
    straight.run_vcycles(10).unwrap();
    parked.run_vcycles(10).unwrap();

    let bytes = save_checkpoint(&parked.checkpoint());
    drop(parked); // nothing survives but the bytes
    let mut revived = load_checkpoint(&bytes, fleet.program()).unwrap().boot();

    straight.run_vcycles(25).unwrap();
    revived.run_vcycles(25).unwrap();
    assert_eq!(
        revived.state_fingerprint(),
        straight.state_fingerprint(),
        "save → load → resume == uninterrupted"
    );
}

#[test]
fn corrupt_or_mismatched_checkpoints_are_typed_errors() {
    let netlist = counter_netlist();
    let fleet = FleetSim::compile(&netlist, MachineConfig::with_grid(2, 2), 1).unwrap();
    let mut machine = Machine::from_program(Arc::clone(fleet.program()));
    machine.run_vcycles(5).unwrap();
    let bytes = save_checkpoint(&machine.checkpoint());

    // Any single flipped byte fails the checksum.
    for pos in [0, bytes.len() / 3, bytes.len() - 1] {
        let mut bad = bytes.clone();
        bad[pos] ^= 0x01;
        assert!(
            load_checkpoint(&bad, fleet.program()).is_err(),
            "flip at {pos} must not load"
        );
    }
    // Truncation at any point is an error, not a partial load.
    for keep in [0, 4, bytes.len() / 2, bytes.len() - 1] {
        assert!(load_checkpoint(&bytes[..keep], fleet.program()).is_err());
    }
    // A checkpoint only rebinds to a program of the same shape.
    let other = FleetSim::compile(&netlist, MachineConfig::with_grid(3, 3), 1).unwrap();
    match load_checkpoint(&bytes, other.program()) {
        Err(PersistError::ProgramMismatch { .. }) => {}
        other => panic!("expected ProgramMismatch, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Crash-safe sessions: park → restart → recover → resume.

fn temp_session_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("manticore-hardening-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn recovered_sessions_resume_bit_identically_under_their_original_ids() {
    let dir = temp_session_dir("recover");
    let netlist = counter_netlist();

    // Server #1: park one catalog session and one wire-netlist session.
    let (catalog_id, wire_id) = {
        let server = test_server(|cfg| cfg.session_dir = Some(dir.clone()));
        let mut client = Client::connect(server.local_addr()).unwrap();
        let catalog = expect_result(
            client
                .call(&Request::Submit(SubmitReq {
                    id: 1,
                    design: "accum".into(),
                    grid: None,
                    vcycles: 30,
                    pokes: vec![("step".into(), 3)],
                    reads: vec![],
                    deadline_ms: None,
                    park: true,
                }))
                .unwrap(),
        );
        let wire = expect_result(
            client
                .call(&submit_netlist(2, wire::encode_netlist(&netlist), 30, true))
                .unwrap(),
        );
        (
            catalog.session.expect("catalog job parked"),
            wire.session.expect("wire job parked"),
        )
        // Server #1 dies here (graceful in-process; the SIGKILL variant
        // lives in the serve_recovery bench). Spilled files survive.
    };

    // Server #2 over the same directory recovers both sessions.
    let server = test_server(|cfg| cfg.session_dir = Some(dir.clone()));
    let stats = server.session_stats();
    assert_eq!(stats.recovered, 2, "both sessions recovered");
    assert_eq!(stats.live, 2);

    let mut client = Client::connect(server.local_addr()).unwrap();
    let resume = |client: &mut Client, id: u64, session: &str, reads: Vec<String>| {
        expect_result(
            client
                .call(&Request::Resume(manticore_serve::proto::ResumeReq {
                    id,
                    session: session.to_string(),
                    vcycles: 70,
                    pokes: vec![],
                    reads,
                    park: false,
                }))
                .unwrap(),
        )
    };
    // Catalog session: 30 pre-crash + 70 post-recovery == 100 straight.
    let continued = resume(&mut client, 3, &catalog_id, vec!["acc".into()]);
    let (netlist_acc, config) = manticore_serve::catalog::lookup("accum", None).unwrap();
    let fleet = FleetSim::compile_with(
        &netlist_acc,
        &CompileOptions {
            config,
            ..Default::default()
        },
        2,
    )
    .unwrap();
    let job = fleet.job(100).with_reg("step", 3).unwrap();
    let run = fleet.run_ganged(vec![job], 1).pop().unwrap();
    let want_fp = format!("{:#018x}", run.sim().machine().state_fingerprint());
    assert_eq!(
        continued.fingerprint, want_fp,
        "catalog session bit-identical"
    );

    // Wire session: same property at the wire path's grid.
    let continued = resume(&mut client, 4, &wire_id, vec!["count".into()]);
    let (want_fp, want_val) = direct_wire_run(&netlist, 100);
    assert_eq!(continued.fingerprint, want_fp, "wire session bit-identical");
    assert_eq!(continued.regs, vec![("count".to_string(), want_val)]);

    // Consumed sessions are gone from disk: a third server recovers none.
    drop(client);
    drop(server);
    let server = test_server(|cfg| cfg.session_dir = Some(dir.clone()));
    assert_eq!(server.session_stats().recovered, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_corrupt_spill_file_does_not_block_recovery_of_the_rest() {
    let dir = temp_session_dir("corrupt");
    {
        let server = test_server(|cfg| cfg.session_dir = Some(dir.clone()));
        let mut client = Client::connect(server.local_addr()).unwrap();
        let r = expect_result(
            client
                .call(&Request::Submit(SubmitReq {
                    id: 1,
                    design: "counter".into(),
                    grid: None,
                    vcycles: 10,
                    pokes: vec![],
                    reads: vec![],
                    deadline_ms: None,
                    park: true,
                }))
                .unwrap(),
        );
        r.session.expect("parked");
    }
    // Vandalize the directory alongside the good spill.
    std::fs::write(dir.join("s-666.mses"), b"definitely not a session").unwrap();

    let server = test_server(|cfg| cfg.session_dir = Some(dir.clone()));
    let stats = server.session_stats();
    assert_eq!(stats.recovered, 1, "the good session still recovers");
    assert_still_serving(&server);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// The fuzzer, end to end.

#[test]
fn a_seeded_fuzz_run_leaves_the_server_alive_and_leak_free() {
    let server = test_server(|_| {});
    for seed in [1u64, 0xDEAD_BEEF, 42] {
        let config = FuzzConfig {
            seed,
            frames: 200,
            probe_timeout: Duration::from_secs(30),
        };
        let report = run_fuzz(server.local_addr(), &config).expect("server survives the fuzz");
        assert_eq!(report.live_sessions, 0, "seed {seed} leaked sessions");
        assert!(report.replies > 0, "probes got answers");
    }
    assert_still_serving(&server);
}
