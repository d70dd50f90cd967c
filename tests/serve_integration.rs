//! Whole-stack tests for the simulation service: a real server on a
//! loopback socket, real clients, and bit-identity checks against the
//! direct in-process fleet.
//!
//! Covered here, one scenario per test:
//! - cache hit vs miss produce bit-identical results, both identical to
//!   a direct `FleetSim` run;
//! - a stampede of identical submissions compiles exactly once
//!   (single-flight);
//! - a tiny byte budget forces LRU eviction and recompilation;
//! - admission control rejects past the high-water mark with a usable
//!   retry hint, and the retry succeeds;
//! - a mid-job disconnect cancels only the disconnecting client's work;
//! - a short job is not held behind another client's long-running one;
//! - park → resume continues a run with a state fingerprint identical
//!   to one uninterrupted run.

use std::time::Duration;

use manticore::prelude::*;
use manticore_serve::client::Client;
use manticore_serve::proto::{JobResult, Reply, Request, SubmitReq};
use manticore_serve::server::{Server, ServerConfig};

/// A small default server for tests: modest queue, fast reaper.
fn test_server(tweak: impl FnOnce(&mut ServerConfig)) -> Server {
    let mut cfg = ServerConfig {
        workers: 2,
        lanes: 2,
        session_ttl: Duration::from_secs(10),
        reaper_period: Duration::from_millis(50),
        ..ServerConfig::default()
    };
    tweak(&mut cfg);
    Server::bind("127.0.0.1:0", cfg).expect("bind loopback")
}

fn submit(id: u64, design: &str, vcycles: u64, pokes: &[(&str, u64)], reads: &[&str]) -> Request {
    Request::Submit(SubmitReq {
        id,
        design: design.into(),
        grid: None,
        vcycles,
        pokes: pokes.iter().map(|(n, v)| (n.to_string(), *v)).collect(),
        reads: reads.iter().map(|r| r.to_string()).collect(),
        deadline_ms: None,
        park: false,
    })
}

fn expect_result(reply: Reply) -> JobResult {
    match reply {
        Reply::Result(r) => r,
        other => panic!("expected a result, got {other:?}"),
    }
}

/// The ground truth: run the same scenario on a direct in-process fleet
/// and return (fingerprint, reg value).
fn direct_run(design: &str, vcycles: u64, pokes: &[(&str, u64)], read: &str) -> (String, u64) {
    let (netlist, config) = manticore_serve::catalog::lookup(design, None).expect("known design");
    let fleet = FleetSim::compile_with(
        &netlist,
        &CompileOptions {
            config,
            ..Default::default()
        },
        2,
    )
    .expect("compiles");
    let mut job = fleet.job(vcycles);
    for (name, value) in pokes {
        job = job.with_reg(name, *value).expect("known register");
    }
    let run = fleet.run(vec![job]).pop().expect("one run");
    assert!(run.result.is_ok());
    let fingerprint = format!("{:#018x}", run.sim().machine().state_fingerprint());
    let value = run.sim().read_rtl_reg_by_name(read).expect("reg").to_u64();
    (fingerprint, value)
}

#[test]
fn cache_hit_and_miss_are_bit_identical_to_the_direct_fleet() {
    let server = test_server(|_| {});
    #[allow(clippy::type_complexity)]
    let scenarios: [(&str, u64, &[(&str, u64)], &str); 3] = [
        ("counter", 100, &[("count", 7_000)], "count"),
        ("accum", 64, &[("acc", 5), ("step", 3)], "acc"),
        ("lfsr", 257, &[("lfsr", 0xBEEF)], "lfsr"),
    ];
    for (design, vcycles, pokes, read) in scenarios {
        let (want_fp, want_val) = direct_run(design, vcycles, pokes, read);
        // First submission compiles (miss), second is served from cache
        // (hit) — on a fresh connection, to prove sharing across conns.
        for round in 0..2 {
            let mut client = Client::connect(server.local_addr()).unwrap();
            let r = expect_result(
                client
                    .call(&submit(round, design, vcycles, pokes, &[read]))
                    .unwrap(),
            );
            assert_eq!(r.outcome, "budget", "{design} runs forever");
            assert_eq!(r.vcycles_run, vcycles);
            assert_eq!(r.fingerprint, want_fp, "{design} round {round}");
            assert_eq!(r.regs, vec![(read.to_string(), want_val)]);
        }
    }
    let stats = server.cache_stats();
    assert_eq!(stats.misses, 3, "one compile per design");
    assert_eq!(stats.hits, 3, "one hit per design");
}

#[test]
fn concurrent_identical_submissions_compile_exactly_once() {
    let server = test_server(|cfg| cfg.compile_slots = 1);
    let addr = server.local_addr();
    let results: Vec<JobResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..6)
            .map(|i| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    expect_result(
                        client
                            .call(&submit(i, "toggle", 50, &[], &["edges"]))
                            .unwrap(),
                    )
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let first = &results[0];
    for r in &results {
        assert_eq!(r.fingerprint, first.fingerprint, "all six agree");
        assert_eq!(r.regs, vec![("edges".to_string(), 25)]);
    }
    let stats = server.cache_stats();
    assert_eq!(stats.misses, 1, "single-flight: one compile for six conns");
    assert_eq!(stats.hits, 5);
}

#[test]
fn a_tiny_byte_budget_evicts_lru_and_recompiles() {
    // A 1-byte budget keeps at most the just-inserted entry, so every
    // design change evicts the previous one.
    let server = test_server(|cfg| cfg.cache_bytes = 1);
    let mut client = Client::connect(server.local_addr()).unwrap();
    for (i, design) in ["counter", "accum", "counter"].iter().enumerate() {
        let r = expect_result(
            client
                .call(&submit(i as u64, design, 10, &[], &[]))
                .unwrap(),
        );
        assert_eq!(r.outcome, "budget");
    }
    let stats = server.cache_stats();
    assert_eq!(stats.misses, 3, "the evicted counter compiles again");
    assert_eq!(stats.hits, 0);
    assert!(stats.evictions >= 2, "each insert evicts its predecessor");
}

#[test]
fn admission_rejects_past_high_water_and_the_retry_succeeds() {
    let server = test_server(|cfg| cfg.queue_high_water = 2);
    // Connections A1 and A2 occupy both workers with effectively
    // unbounded jobs (each only ends when its client disconnects and
    // cancellation trips). Two connections, so the jobs cannot gang.
    let mut blockers = Vec::new();
    for id in [0, 100] {
        let mut blocker = Client::connect(server.local_addr()).unwrap();
        blocker
            .send(&submit(id, "counter", u64::MAX / 2, &[], &[]))
            .unwrap();
        blockers.push(blocker);
    }
    let mut observer = Client::connect(server.local_addr()).unwrap();
    while stat(&mut observer, "jobs_submitted") < 2 || stat(&mut observer, "queued") > 0 {
        std::thread::sleep(Duration::from_millis(5));
    }

    // Connection B floods: with the workers busy, at least one of these
    // must bounce off the high-water mark.
    let mut client = Client::connect(server.local_addr()).unwrap();
    for id in 1..=3u64 {
        client
            .send(&submit(
                id,
                "counter",
                10,
                &[("count", id * 10)],
                &["count"],
            ))
            .unwrap();
    }
    // The blockers must not leave before the server has read all three:
    // a disconnect frees a worker, which would drain B's queue.
    while stat(&mut observer, "jobs_submitted") + stat(&mut observer, "jobs_rejected") < 5 {
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(blockers); // frees the workers: A's jobs cancel at a Vcycle boundary

    let mut accepted = Vec::new();
    let mut rejected = Vec::new();
    for _ in 0..3 {
        match client.recv().unwrap().expect("reply per submission") {
            Reply::Result(r) => accepted.push(r),
            Reply::Reject {
                id,
                reason,
                retry_after_ms,
                ..
            } => {
                assert_eq!(reason, "queue_full");
                assert!(retry_after_ms > 0, "the hint must be usable");
                rejected.push((id, retry_after_ms));
            }
            other => panic!("unexpected reply: {other:?}"),
        }
    }
    assert!(
        !rejected.is_empty(),
        "high water must have bounced something"
    );
    assert!(!accepted.is_empty(), "below high water still admits");

    // Honor the hint, resubmit every bounced job, and expect results.
    for &(id, retry_after_ms) in &rejected {
        std::thread::sleep(Duration::from_millis(retry_after_ms));
        let r = expect_result(
            client
                .call(&submit(
                    id,
                    "counter",
                    10,
                    &[("count", id * 10)],
                    &["count"],
                ))
                .unwrap(),
        );
        accepted.push(r);
    }
    for r in &accepted {
        assert_eq!(r.regs, vec![("count".to_string(), r.id * 10 + 10)]);
    }
}

#[test]
fn disconnect_cancels_only_that_clients_jobs() {
    let server = test_server(|_| {});
    // A submits a job that would run for days; B submits real work.
    let mut a = Client::connect(server.local_addr()).unwrap();
    a.send(&submit(1, "lfsr", u64::MAX / 2, &[], &[])).unwrap();
    std::thread::sleep(Duration::from_millis(100));
    let mut b = Client::connect(server.local_addr()).unwrap();
    b.send(&submit(2, "counter", 1_000, &[("count", 5)], &["count"]))
        .unwrap();

    // A walks away. Its running job must cancel (freeing the fleet),
    // while B's job runs to completion with correct state.
    drop(a);
    let r = expect_result(b.recv().unwrap().expect("B's result"));
    assert_eq!(r.outcome, "budget");
    assert_eq!(r.vcycles_run, 1_000);
    assert_eq!(r.regs, vec![("count".to_string(), 1_005)]);

    // The server keeps serving afterwards — the cancellation did not
    // poison the dispatcher.
    let r = expect_result(b.call(&submit(3, "counter", 10, &[], &["count"])).unwrap());
    assert_eq!(r.regs, vec![("count".to_string(), 10)]);
}

/// A stats counter, read over `client`.
fn stat(client: &mut Client, name: &str) -> u64 {
    let stats = client.stats().expect("stats");
    stats.get(name).and_then(|v| v.as_u64()).expect("counter")
}

#[test]
fn a_short_job_is_not_held_behind_a_long_one() {
    let server = test_server(|cfg| cfg.workers = 2);
    let mut b = Client::connect(server.local_addr()).unwrap();
    // A's job would run for minutes (10^10 Vcycles): it only ends when A
    // disconnects.
    let mut a = Client::connect(server.local_addr()).unwrap();
    a.send(&submit(1, "counter", 10_000_000_000, &[], &[]))
        .unwrap();
    // Wait until A's job has left the queue for a worker.
    let started = std::time::Instant::now();
    while stat(&mut b, "jobs_submitted") < 1 || stat(&mut b, "queued") > 0 {
        assert!(started.elapsed() < Duration::from_secs(30), "A never ran");
        std::thread::sleep(Duration::from_millis(10));
    }

    // B's 200-Vcycle job takes the free worker and answers while A's job
    // is still running, rather than waiting for it to finish.
    let (tx, rx) = std::sync::mpsc::channel();
    let addr = server.local_addr();
    std::thread::spawn(move || {
        let mut b = Client::connect(addr).unwrap();
        let reply = b.call(&submit(2, "counter", 200, &[("count", 5)], &["count"]));
        let _ = tx.send(reply.map(expect_result));
    });
    let r = rx
        .recv_timeout(Duration::from_secs(20))
        .expect("B's short job was held behind A's long one")
        .unwrap();
    assert_eq!(r.outcome, "budget");
    assert_eq!(r.regs, vec![("count".to_string(), 205)]);
    assert_eq!(
        stat(&mut b, "jobs_completed"),
        1,
        "A's job is still running"
    );

    // A walks away: its job is cancelled at a Vcycle boundary and
    // completes long before its budget could run out.
    drop(a);
    let dropped = std::time::Instant::now();
    while stat(&mut b, "jobs_completed") < 2 {
        assert!(
            dropped.elapsed() < Duration::from_secs(20),
            "A's job was not cancelled"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn park_and_resume_match_one_uninterrupted_run_bit_for_bit() {
    let server = test_server(|_| {});
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Parked: 30 Vcycles now, 70 later.
    let first = expect_result(
        client
            .call(&Request::Submit(SubmitReq {
                id: 1,
                design: "accum".into(),
                grid: None,
                vcycles: 30,
                pokes: vec![("step".into(), 3)],
                reads: vec!["acc".into()],
                deadline_ms: None,
                park: true,
            }))
            .unwrap(),
    );
    let session = first.session.clone().expect("parked jobs return a session");
    let (_, want_30) = direct_run("accum", 30, &[("step", 3)], "acc");
    assert_eq!(first.regs, vec![("acc".to_string(), want_30)]);

    let second = expect_result(
        client
            .call(&Request::Resume(manticore_serve::proto::ResumeReq {
                id: 2,
                session: session.clone(),
                vcycles: 70,
                pokes: vec![],
                reads: vec!["acc".into()],
                park: false,
            }))
            .unwrap(),
    );
    // Ground truth: one uninterrupted 100-Vcycle run must match the
    // split 30 + 70 run bit for bit.
    let (want_fp, want_val) = direct_run("accum", 100, &[("step", 3)], "acc");
    assert_eq!(second.fingerprint, want_fp, "split run == whole run");
    assert_eq!(second.regs, vec![("acc".to_string(), want_val)]);

    // The resume consumed the session: a second resume is an error.
    match client
        .call(&Request::Resume(manticore_serve::proto::ResumeReq {
            id: 3,
            session,
            vcycles: 1,
            pokes: vec![],
            reads: vec![],
            park: false,
        }))
        .unwrap()
    {
        Reply::Error { id, message } => {
            assert_eq!(id, Some(3));
            assert!(message.contains("session"));
        }
        other => panic!("expected an error, got {other:?}"),
    }
}

#[test]
fn the_reaper_expires_idle_sessions() {
    let server = test_server(|cfg| {
        cfg.session_ttl = Duration::from_millis(100);
        cfg.reaper_period = Duration::from_millis(20);
    });
    let mut client = Client::connect(server.local_addr()).unwrap();
    let r = expect_result(
        client
            .call(&Request::Submit(SubmitReq {
                id: 1,
                design: "counter".into(),
                grid: None,
                vcycles: 5,
                pokes: vec![],
                reads: vec![],
                deadline_ms: None,
                park: true,
            }))
            .unwrap(),
    );
    let session = r.session.expect("parked");
    std::thread::sleep(Duration::from_millis(400));
    assert_eq!(server.session_stats().reaped, 1);
    match client
        .call(&Request::Resume(manticore_serve::proto::ResumeReq {
            id: 2,
            session,
            vcycles: 1,
            pokes: vec![],
            reads: vec![],
            park: false,
        }))
        .unwrap()
    {
        Reply::Error { .. } => {}
        other => panic!("reaped session must not resume: {other:?}"),
    }
}
