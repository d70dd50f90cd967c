//! `serve_soak` — sustained-load harness for the simulation service.
//!
//! Boots a real server on a loopback socket, then drives a large stream
//! of jobs through real client connections, one phase per catalog
//! design: `--conns` clients per phase, each pipelining submissions with
//! a bounded in-flight window, honoring `retry_after_ms` on rejects.
//! Reports per-design jobs/s (and their geomean), the cache counters
//! (hit rate is *deterministic*: misses must equal the design count),
//! and RSS flatness (final RSS vs RSS after the warm-up compiles — a
//! leaky server fails the within-10% acceptance bound). Beside the RSS
//! pair it reports live heap bytes at the same two points, counted by
//! this binary's global allocator: RSS also moves with allocator arenas
//! and thread stacks, live bytes only with what the process still holds.
//!
//! ```text
//! serve_soak [--jobs N] [--conns C] [--vcycles V] [--workers W]
//!            [--lanes L] [--json PATH]
//! ```
//!
//! The committed baseline is BENCH_serve.json; scripts/bench_gate.py
//! gates fresh runs against it with `--serve-fresh/--serve-baseline`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use manticore_bench::json::Val;
use manticore_bench::{fmt, reject_unknown_args, take_flag};
use manticore_serve::client::Client;
use manticore_serve::proto::{Reply, Request, SubmitReq};
use manticore_serve::server::{Server, ServerConfig};

/// (design, poked register, read-back register) per soak phase.
const DESIGNS: [(&str, &str, &str); 4] = [
    ("counter", "count", "count"),
    ("accum", "acc", "acc"),
    ("lfsr", "lfsr", "lfsr"),
    ("toggle", "edges", "edges"),
];

/// Submissions a connection keeps in flight before reading replies.
const WINDOW: u64 = 32;

/// The system allocator, keeping a count of live heap bytes.
struct CountingAlloc;

/// Bytes allocated and not yet freed, process-wide.
static HEAP_LIVE: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to `System` unchanged; the counter only
// observes the sizes.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract for `alloc`, passed on unchanged.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            HEAP_LIVE.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract for `alloc_zeroed`, passed on.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            HEAP_LIVE.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // `layout`, as the caller's contract for `dealloc` requires.
        unsafe { System.dealloc(ptr, layout) };
        HEAP_LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's contract for `realloc`, passed on; `ptr`
        // came from `System` through this allocator.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            HEAP_LIVE.fetch_add(new_size as u64, Ordering::Relaxed);
            HEAP_LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn heap_live_bytes() -> u64 {
    HEAP_LIVE.load(Ordering::Relaxed)
}

fn rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmRSS:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

fn submit(id: u64, design: &str, vcycles: u64, poke: (&str, u64), read: &str) -> Request {
    Request::Submit(SubmitReq {
        id,
        design: design.into(),
        grid: None,
        vcycles,
        pokes: vec![(poke.0.to_string(), poke.1)],
        reads: vec![read.to_string()],
        deadline_ms: None,
        park: false,
    })
}

/// One connection's share of a phase: pipeline `jobs` submissions with
/// at most WINDOW outstanding, resubmitting rejects after their hint.
/// Returns (completed, rejects_seen).
fn drive(
    addr: std::net::SocketAddr,
    design: &str,
    poke_reg: &str,
    read_reg: &str,
    vcycles: u64,
    jobs: u64,
) -> (u64, u64) {
    let mut client = Client::connect(addr).expect("connect");
    let mut next: u64 = 0;
    let mut in_flight: u64 = 0;
    let mut completed: u64 = 0;
    let mut rejects: u64 = 0;
    // Rejected ids to resubmit once their backoff elapses.
    let mut retry: Vec<(u64, Instant)> = Vec::new();
    while completed < jobs {
        // Fill the window: backoff-expired retries first, then new work.
        while in_flight < WINDOW {
            let now = Instant::now();
            let id = if let Some(pos) = retry.iter().position(|&(_, at)| at <= now) {
                retry.swap_remove(pos).0
            } else if next < jobs {
                next += 1;
                next - 1
            } else {
                break;
            };
            client
                .send(&submit(
                    id,
                    design,
                    vcycles,
                    (poke_reg, id & 0xffff),
                    read_reg,
                ))
                .expect("send");
            in_flight += 1;
        }
        if in_flight == 0 {
            // Everything outstanding is backing off; wait out the
            // earliest deadline.
            let earliest = retry
                .iter()
                .map(|&(_, at)| at)
                .min()
                .expect("retries exist");
            std::thread::sleep(earliest.saturating_duration_since(Instant::now()));
            continue;
        }
        match client.recv().expect("recv").expect("server open") {
            Reply::Result(r) => {
                assert_eq!(r.outcome, "budget", "micro designs never finish");
                assert_eq!(r.vcycles_run, vcycles);
                assert_eq!(r.regs.len(), 1, "one read-back per job");
                in_flight -= 1;
                completed += 1;
            }
            Reply::Reject {
                id, retry_after_ms, ..
            } => {
                in_flight -= 1;
                rejects += 1;
                retry.push((id, Instant::now() + Duration::from_millis(retry_after_ms)));
            }
            other => panic!("unexpected reply: {other:?}"),
        }
    }
    (completed, rejects)
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let jobs_total: u64 = take_flag(&mut args, "--jobs")
        .map(|v| v.parse().expect("--jobs"))
        .unwrap_or(100_000);
    let conns: usize = take_flag(&mut args, "--conns")
        .map(|v| v.parse().expect("--conns"))
        .unwrap_or(4);
    let vcycles: u64 = take_flag(&mut args, "--vcycles")
        .map(|v| v.parse().expect("--vcycles"))
        .unwrap_or(200);
    let workers: usize = take_flag(&mut args, "--workers")
        .map(|v| v.parse().expect("--workers"))
        .unwrap_or(2);
    let lanes: usize = take_flag(&mut args, "--lanes")
        .map(|v| v.parse().expect("--lanes"))
        .unwrap_or(4);
    let json_path = take_flag(&mut args, "--json");
    reject_unknown_args(&args);

    let jobs_per_design = (jobs_total / DESIGNS.len() as u64).max(1);
    let cfg = ServerConfig {
        workers,
        lanes,
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind loopback");
    let addr = server.local_addr();

    // Warm-up: a scaled-down pass with the soak's exact concurrency
    // shape. It triggers each design's compile (the misses) and brings
    // the process to steady state — thread stacks, allocator arenas,
    // socket buffers — so the RSS baseline measures the *plateau*, and
    // any growth after it is per-job leakage, the thing the flatness
    // bound is for.
    let warm_jobs = (jobs_per_design / 20).max(conns as u64 * WINDOW);
    for (design, poke_reg, read_reg) in DESIGNS {
        std::thread::scope(|scope| {
            for _ in 0..conns {
                scope.spawn(move || {
                    drive(
                        addr,
                        design,
                        poke_reg,
                        read_reg,
                        vcycles,
                        warm_jobs / conns as u64,
                    )
                });
            }
        });
    }
    let rss_warm = rss_bytes();
    let heap_warm = heap_live_bytes();
    let warm = server.cache_stats();
    assert_eq!(
        warm.misses,
        DESIGNS.len() as u64,
        "warm-up compiles each design exactly once"
    );

    println!(
        "serve_soak: {} jobs x {} designs, {} conns, {} vcycles/job, {} workers, {} lanes",
        jobs_per_design,
        DESIGNS.len(),
        conns,
        vcycles,
        workers,
        lanes
    );
    manticore_bench::row(&[
        "design".into(),
        "jobs".into(),
        "wall s".into(),
        "jobs/s".into(),
        "rejects".into(),
    ]);

    let mut rows = Vec::new();
    let mut rates = Vec::new();
    let mut total_jobs: u64 = 0;
    let mut total_rejects: u64 = 0;
    let start_all = Instant::now();
    for (design, poke_reg, read_reg) in DESIGNS {
        let start = Instant::now();
        let per_conn = jobs_per_design / conns as u64;
        let mut counts: Vec<(u64, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..conns)
                .map(|i| {
                    // The first connection absorbs the division remainder.
                    let share = if i == 0 {
                        jobs_per_design - per_conn * (conns as u64 - 1)
                    } else {
                        per_conn
                    };
                    scope.spawn(move || drive(addr, design, poke_reg, read_reg, vcycles, share))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let wall = start.elapsed().as_secs_f64();
        let done: u64 = counts.iter().map(|&(c, _)| c).sum();
        let rejects: u64 = counts.drain(..).map(|(_, r)| r).sum();
        assert_eq!(done, jobs_per_design, "{design}: every job completes");
        let rate = done as f64 / wall;
        manticore_bench::row(&[
            design.into(),
            done.to_string(),
            fmt(wall),
            fmt(rate),
            rejects.to_string(),
        ]);
        rows.push(Val::obj(vec![
            ("name", Val::Str(design.into())),
            ("jobs", Val::Int(done)),
            ("wall_seconds", Val::Num(wall)),
            ("jobs_per_sec", Val::Num(rate)),
            ("rejects", Val::Int(rejects)),
        ]));
        rates.push(rate);
        total_jobs += done;
        total_rejects += rejects;
    }
    let wall_all = start_all.elapsed().as_secs_f64();
    let rss_final = rss_bytes();
    let heap_final = heap_live_bytes();
    let geomean = (rates.iter().map(|r| r.ln()).sum::<f64>() / rates.len() as f64).exp();

    let cache = server.cache_stats();
    let hit_rate = cache.hits as f64 / (cache.hits + cache.misses) as f64;
    let rss_growth = if rss_warm > 0 {
        rss_final as f64 / rss_warm as f64
    } else {
        1.0
    };
    println!(
        "heap: {:.1} MiB live after warm-up -> {:.1} MiB at the end",
        heap_warm as f64 / (1 << 20) as f64,
        heap_final as f64 / (1 << 20) as f64,
    );
    // The acceptance bounds, asserted here so a local run fails loudly
    // without the gate: deterministic compile count (hence hit rate),
    // and flat memory.
    assert_eq!(
        cache.misses,
        DESIGNS.len() as u64,
        "soak must never recompile: every post-warm job is a cache hit"
    );
    assert!(
        hit_rate >= 0.90,
        "cache hit rate {hit_rate:.4} below the 90% acceptance floor"
    );
    assert!(
        rss_growth <= 1.10,
        "RSS grew {rss_growth:.3}x over the soak — the server is not flat"
    );

    println!(
        "total: {total_jobs} jobs in {} ({} jobs/s geomean), hit rate {:.4}, \
         RSS {:.1} MiB -> {:.1} MiB ({:.3}x), {total_rejects} rejects",
        fmt(wall_all),
        fmt(geomean),
        hit_rate,
        rss_warm as f64 / (1 << 20) as f64,
        rss_final as f64 / (1 << 20) as f64,
        rss_growth
    );

    if let Some(path) = json_path {
        let out = Val::obj(vec![
            ("bench", Val::Str("serve_soak".into())),
            ("jobs_per_design", Val::Int(jobs_per_design)),
            ("jobs_total", Val::Int(total_jobs)),
            ("conns", Val::Int(conns as u64)),
            ("vcycles", Val::Int(vcycles)),
            ("workers", Val::Int(workers as u64)),
            ("lanes", Val::Int(lanes as u64)),
            ("rows", Val::Arr(rows)),
            ("geomean_jobs_per_sec", Val::Num(geomean)),
            ("wall_seconds", Val::Num(wall_all)),
            ("cache_hits", Val::Int(cache.hits)),
            ("cache_misses", Val::Int(cache.misses)),
            ("cache_evictions", Val::Int(cache.evictions)),
            ("cache_hit_rate", Val::Num(hit_rate)),
            ("rejects", Val::Int(total_rejects)),
            ("rss_warm_bytes", Val::Int(rss_warm)),
            ("rss_final_bytes", Val::Int(rss_final)),
            ("rss_growth", Val::Num(rss_growth)),
            ("heap_live_warm_bytes", Val::Int(heap_warm)),
            ("heap_live_final_bytes", Val::Int(heap_final)),
        ]);
        manticore_bench::json::write(&path, &out);
        println!("wrote {path}");
    }
}
